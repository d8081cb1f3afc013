"""Tests for the changed-cluster commit journal.

Every engine flavor over the SQLite store must durably record, at each
commit barrier, which clusters that commit touched — so serving readers
can resync by applying per-commit deltas instead of rebuilding.  Every
assertion reads the journal the way serving does, through
:meth:`CatalogReader.read_delta`; at head *k*, ``read_delta(k - 1)`` is
exactly commit *k*'s touched clusters.  Covered here:

* the ``commit_journal`` table: newest-wins folding, empty commits,
  explicit compaction, persistence across reopen, the ``journal_floor``
  gauge;
* per-commit journal entries on single-engine runs, and journal
  coverage of multi-node and multi-process cluster runs (every flavor
  commits through the same barrier);
* crash injection at the ``journal`` fault point: the failed commit
  rolls back to a consistent journal and a replay lands intact;
* the service's delta apply: a re-fused product is upserted and a
  withdrawn one leaves the index, without a rebuild;
* the serving fallback: a compacted (truncated) journal forces a full
  index rebuild, reported distinctly from delta resyncs; legacy store
  files without the journal table degrade to the same fallback.
"""

import sqlite3

import pytest

from repro.model.attributes import Specification
from repro.model.products import Product
from repro.model.products import product_fingerprint as fingerprint
from repro.obs import MetricsRegistry, set_registry
from repro.runtime import (
    MemoryCatalogStore,
    MultiNodeEngine,
    MultiProcessEngine,
    SynthesisEngine,
)
from repro.runtime.state import StagedBatch
from repro.runtime.store.sqlite import SqliteCatalogStore
from repro.serving import CatalogReader, CatalogSearchService
from repro.synthesis.pipeline import stable_product_id


def make_product(pid, category, title, pairs=()):
    return Product(
        product_id=pid,
        category_id=category,
        title=title,
        specification=Specification(list(pairs)),
    )


def put(store, key, title, category="cat.widgets"):
    """Create-or-touch one cluster and set its product."""
    cluster_id = (category, key)
    store.apply(
        StagedBatch(
            clusters=[] if store.get_cluster(cluster_id) else [cluster_id],
            products={cluster_id: make_product(f"p-{key}", category, title)},
        )
    )
    return cluster_id


def make_engine(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
        **kwargs,
    )


def feed_stream(harness, num_batches=3):
    offers = sorted(harness.unmatched_offers, key=lambda offer: offer.merchant_id)
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


def read_delta(path, since):
    """``(head, delta)`` from a fresh :class:`CatalogReader` on ``path``."""
    reader = CatalogReader(path)
    try:
        return reader.read_delta(since)
    finally:
        reader.close()


def assert_journal_folds_to_catalog(path, products):
    """The journal replayed from commit 0 reproduces the full catalog."""
    _, delta = read_delta(path, 0)
    assert delta is not None
    survivors = [product for product in delta.values() if product is not None]
    assert sorted(fingerprint(survivors)) == sorted(fingerprint(products))


class TestSqliteJournal:
    def test_commits_fold_newest_wins(self, tmp_path):
        path = str(tmp_path / "fold.sqlite3")
        store = SqliteCatalogStore(path)
        cluster_id = put(store, "a", "first title")
        store.commit()
        head, delta = read_delta(path, 0)
        assert head == 1
        assert delta[cluster_id].title == "first title"
        put(store, "a", "second title")
        other = put(store, "b", "other product")
        store.commit()

        head, delta = read_delta(path, 0)
        assert head == 2
        assert delta[cluster_id].title == "second title"
        assert set(delta) == {cluster_id, other}
        # Commit 2 alone touched both clusters.
        assert set(read_delta(path, 1)[1]) == {cluster_id, other}
        # A resync already at head applies an empty delta.
        assert read_delta(path, 2) == (2, {})
        store.close()

    def test_empty_commit_is_covered_without_an_entry(self, tmp_path):
        path = str(tmp_path / "empty.sqlite3")
        store = SqliteCatalogStore(path)
        put(store, "a", "title")
        store.commit()
        store.commit()  # nothing touched
        assert store.commit_count == 2
        assert store.journal_floor() == 0
        assert read_delta(path, 1) == (2, {})
        store.close()

    def test_compaction_and_validation(self, tmp_path):
        path = str(tmp_path / "compact.sqlite3")
        store = SqliteCatalogStore(path)
        for key in ("a", "b", "c"):
            last = put(store, key, f"title {key}")
            store.commit()
        assert store.compact_journal(retain_commits=1) == 2
        assert store.journal_floor() == 2
        assert read_delta(path, 1) == (3, None)
        assert set(read_delta(path, 2)[1]) == {last}
        with pytest.raises(ValueError, match="retain_commits"):
            store.compact_journal(retain_commits=-1)
        # Retention is explicit: there is no reader-driven auto mode.
        with pytest.raises(TypeError, match="auto"):
            store.compact_journal(auto=True)
        # Asking for the future is not coverage either.
        assert read_delta(path, store.commit_count + 1) == (3, None)
        store.close()

    def test_journal_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "journal.sqlite3")
        store = SqliteCatalogStore(path)
        cluster_id = put(store, "a", "durable title")
        store.commit()
        store.close()

        reopened = SqliteCatalogStore(path)
        try:
            assert reopened.journal_floor() == 0
            head, delta = read_delta(path, 0)
            assert head == reopened.commit_count
            assert list(delta) == [cluster_id]
            assert delta[cluster_id].title == "durable title"
        finally:
            reopened.close()

    def test_crash_at_the_journal_fault_point_rolls_back_cleanly(self, tmp_path):
        path = str(tmp_path / "crash.sqlite3")
        store = SqliteCatalogStore(path)
        survivor = put(store, "a", "committed before the crash")
        store.commit()
        head = store.commit_count

        def explode(operation):
            if operation == "journal":
                raise RuntimeError("injected journal crash")

        store.set_fault_hook(explode)
        put(store, "b", "lost to the crash")
        with pytest.raises(RuntimeError, match="injected journal crash"):
            store.commit()
        store.set_fault_hook(None)
        store.rollback()

        # The journal is consistent with the surviving commit count: the
        # half-written barrier left no trace.
        assert store.commit_count == head
        seen_head, delta = read_delta(path, 0)
        assert seen_head == head
        assert list(delta) == [survivor]

        # Replaying the batch lands it intact, journal included.
        cluster_id = put(store, "b", "replayed after the crash")
        store.commit()
        assert store.commit_count == head + 1
        new_head, delta = read_delta(path, head)
        assert new_head == head + 1
        assert list(delta) == [cluster_id]
        assert delta[cluster_id].title == "replayed after the crash"
        store.close()

    def test_legacy_file_without_journal_reports_no_coverage(self, tmp_path):
        path = str(tmp_path / "legacy.sqlite3")
        store = SqliteCatalogStore(path)
        put(store, "a", "pre-journal catalog")
        store.commit()
        store.close()  # the closing flush is one more (empty) commit
        head = 2
        # Strip the journal artefacts, simulating a file written before
        # the journal existed.
        connection = sqlite3.connect(path)
        connection.execute("DROP TABLE commit_journal")
        connection.execute("DELETE FROM meta WHERE key = 'journal_floor'")
        connection.commit()
        connection.close()

        assert read_delta(path, 0) == (head, None)

        # Reopening through the store recreates the journal with a floor
        # at the current head: old commits are never claimed as covered,
        # and the commits after it are.
        reopened = SqliteCatalogStore(path)
        assert reopened.journal_floor() == reopened.commit_count == head
        reopened.close()  # one more (empty) commit
        assert read_delta(path, 0) == (head + 1, None)
        assert read_delta(path, head) == (head + 1, {})


class TestJournalPerCommit:
    def test_each_commit_journals_the_clusters_it_touched(self, tiny_harness, tmp_path):
        path = str(tmp_path / "journal.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        for batch in feed_stream(tiny_harness):
            report = engine.ingest(batch)
            commit = engine.store.commit_count
            head, journal = read_delta(path, commit - 1)
            assert head == commit
            # The commit's journal entry names at least every cluster the
            # batch touched, each with the store's post-commit product.
            assert len(journal) >= report.clusters_touched
            for cluster_id, recorded in journal.items():
                product = engine.store.get_cluster(cluster_id).product
                assert (recorded is None) == (product is None)
                if product is not None:
                    assert product.product_id == stable_product_id(*cluster_id)
                    assert fingerprint([recorded]) == fingerprint([product])
        assert_journal_folds_to_catalog(path, engine.products())
        engine.close()

    def test_every_ingest_is_one_commit_and_the_newest_entry_wins(
        self, tiny_harness, tmp_path
    ):
        path = str(tmp_path / "newest.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        batches = feed_stream(tiny_harness)
        commit_counts = []
        for batch in batches:
            engine.ingest(batch)
            commit_counts.append(engine.store.commit_count)
        assert commit_counts == list(range(1, len(batches) + 1))

        head, latest = read_delta(path, 0)
        assert head == commit_counts[-1]
        # The folded delta carries each cluster's post-commit product
        # (earlier entries carried since-replaced generations).
        for cluster_id, recorded in latest.items():
            state = engine.store.get_cluster(cluster_id)
            assert state is not None
            assert (recorded is None) == (state.product is None)
            if recorded is not None:
                assert fingerprint([recorded]) == fingerprint([state.product])
        engine.close()

    def test_replayed_batch_commits_without_a_journal_entry(self, tiny_harness, tmp_path):
        path = str(tmp_path / "replay.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        batch = tiny_harness.unmatched_offers[:10]
        engine.ingest(batch)
        report = engine.ingest(batch)  # full replay: deduplicated, still committed
        assert report.offers_duplicate == len(batch)
        assert report.clusters_touched == 0
        assert engine.store.commit_count == 2
        assert read_delta(path, 1) == (2, {})
        engine.close()

    def test_folding_every_entry_reconstructs_the_catalog(self, tiny_harness, tmp_path):
        """Applying each commit's entry, oldest first, to a plain dict
        reproduces products() — the contract the serving index builds on."""
        path = str(tmp_path / "fold.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        mirror = {}
        for batch in feed_stream(tiny_harness, num_batches=4):
            engine.ingest(batch)
            _, touched = read_delta(path, engine.store.commit_count - 1)
            for cluster_id, product in touched.items():
                if product is None:
                    mirror.pop(cluster_id, None)
                else:
                    mirror[cluster_id] = product
        expected = {p.product_id: p for p in engine.products()}
        rebuilt = {p.product_id: p for p in mirror.values()}
        assert rebuilt.keys() == expected.keys()
        for product_id, product in rebuilt.items():
            assert fingerprint([product]) == fingerprint([expected[product_id]])
        engine.close()


    def test_the_process_executor_journals_what_the_serial_one_does(
        self, tiny_harness, tmp_path
    ):
        """Every commit journals the same clusters, with the same products,
        whichever executor fused them (the process executor re-fuses
        through the delta protocol)."""

        def journals(name, **kwargs):
            path = str(tmp_path / f"{name}.sqlite3")
            engine = make_engine(tiny_harness, store="sqlite", store_path=path, **kwargs)
            entries = []
            for batch in feed_stream(tiny_harness):
                engine.ingest(batch)
                head, delta = read_delta(path, engine.store.commit_count - 1)
                recorded = {
                    cluster_id: None if product is None else fingerprint([product])
                    for cluster_id, product in delta.items()
                }
                entries.append((head, recorded))
            engine.close()
            return entries

        expected = journals("serial")
        assert [head for head, _ in expected] == [1, 2, 3]
        assert journals("process", executor="process", max_workers=2) == expected


class TestClusterJournalCoverage:
    def test_multi_node_commits_are_journalled(self, tiny_harness, tmp_path):
        path = str(tmp_path / "nodejournal.sqlite3")
        cluster = MultiNodeEngine(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            store="sqlite",
            store_path=path,
            num_nodes=2,
            num_shards=8,
        )
        for batch in feed_stream(tiny_harness):
            cluster.ingest(batch)
        assert_journal_folds_to_catalog(path, cluster.products())
        cluster.close()

    def test_each_multi_node_batch_is_one_journal_entry(self, tiny_harness, tmp_path):
        """A cluster batch commits once, however many nodes wrote it: at
        head *k* the delta since *k - 1* is that batch's clusters, each
        with the shared store's post-commit product."""
        path = str(tmp_path / "nodebatches.sqlite3")
        cluster = MultiNodeEngine(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            store="sqlite",
            store_path=path,
            num_nodes=2,
            num_shards=8,
        )
        for number, batch in enumerate(feed_stream(tiny_harness), start=1):
            report = cluster.ingest(batch)
            head, journal = read_delta(path, number - 1)
            assert head == cluster.store.commit_count == number
            assert len(journal) >= report.clusters_touched > 0
            for cluster_id, recorded in journal.items():
                product = cluster.store.get_cluster(cluster_id).product
                assert (recorded is None) == (product is None)
                if product is not None:
                    assert fingerprint([recorded]) == fingerprint([product])
        cluster.close()

    def test_multi_process_commits_are_journalled(self, tiny_harness, tmp_path):
        path = str(tmp_path / "procjournal.sqlite3")
        cluster = MultiProcessEngine(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            store_path=path,
            num_nodes=2,
            num_shards=8,
        )
        for batch in feed_stream(tiny_harness, num_batches=2):
            cluster.ingest(batch)
        products = cluster.products()
        cluster.close()
        # The node processes are gone; the journal rows the coordinator
        # wrote at their commit barriers must survive in the shared file.
        assert_journal_folds_to_catalog(path, products)


class TestExplicitRetention:
    """``compact_journal(retain_commits=k)`` is the one retention policy."""

    def test_a_slow_reader_within_the_retention_keeps_delta_syncing(self, tmp_path):
        """Retaining the deepest lag a reader accumulates never truncates it.

        The writer commits twice and compacts to the last four commits
        every cycle, while a cross-process service resyncs only every
        other cycle (four commits behind at most).  The floor rises
        behind the service, yet every resync is a delta.
        """
        path = str(tmp_path / "retention.sqlite3")
        store = SqliteCatalogStore(path)
        sequence = 0
        put(store, f"k{sequence}", "seed product")
        store.commit()
        service = CatalogSearchService.from_store_path(path)
        try:
            assert service.resync_stats()["full_resyncs"] == 1
            for cycle in range(1, 9):
                for _ in range(2):
                    sequence += 1
                    put(store, f"k{sequence}", f"product number {sequence}")
                    store.commit()
                store.compact_journal(retain_commits=4)
                if cycle % 2 == 0:
                    service.resync()
            service.resync()
            stats = service.resync_stats()
            assert stats["full_resyncs"] == 1
            assert stats["journal_truncations"] == 0
            assert stats["delta_resyncs"] >= 4
            assert service.num_products == sequence + 1
            # Compaction was not vacuous: the floor rose behind the service.
            assert store.journal_floor() == store.commit_count - 4 > 0
        finally:
            service.close()
            store.close()


    def test_compaction_never_lowers_the_floor(self, tmp_path):
        path = str(tmp_path / "monotone.sqlite3")
        store = SqliteCatalogStore(path)
        for key in ("a", "b", "c", "d"):
            put(store, key, f"title {key}")
            store.commit()
        assert store.compact_journal(retain_commits=1) == 3
        # Asking to retain more afterwards cannot bring deleted rows back.
        assert store.compact_journal(retain_commits=4) == 3
        assert store.journal_floor() == 3
        assert read_delta(path, 2) == (4, None)
        assert set(read_delta(path, 3)[1]) == {("cat.widgets", "d")}
        store.close()

    def test_retaining_more_than_the_head_keeps_every_commit(self, tmp_path):
        path = str(tmp_path / "keepall.sqlite3")
        store = SqliteCatalogStore(path)
        for key in ("a", "b"):
            put(store, key, f"title {key}")
            store.commit()
        assert store.compact_journal(retain_commits=2) == 0
        assert store.compact_journal(retain_commits=10) == 0
        head, delta = read_delta(path, 0)
        assert head == 2
        assert set(delta) == {("cat.widgets", "a"), ("cat.widgets", "b")}
        store.close()

    def test_an_open_reader_sees_the_raised_floor_at_once(self, tmp_path):
        """Compaction is flushed immediately: a reader connection opened
        before it never applies a delta the deleted rows no longer back."""
        path = str(tmp_path / "openreader.sqlite3")
        store = SqliteCatalogStore(path)
        put(store, "a", "title a")
        store.commit()
        reader = CatalogReader(path)
        try:
            assert set(reader.read_delta(0)[1]) == {("cat.widgets", "a")}
            put(store, "b", "title b")
            store.commit()
            assert store.compact_journal(retain_commits=0) == 2
            assert reader.read_delta(0) == (2, None)
            assert reader.read_delta(2) == (2, {})
        finally:
            reader.close()
            store.close()

    def test_the_raised_floor_survives_reopen(self, tmp_path):
        path = str(tmp_path / "durablefloor.sqlite3")
        store = SqliteCatalogStore(path)
        for key in ("a", "b", "c"):
            put(store, key, f"title {key}")
            store.commit()
        assert store.compact_journal(retain_commits=1) == 2
        store.close()  # one more (empty) commit
        reopened = SqliteCatalogStore(path)
        try:
            # Reopening keeps the compacted floor; it neither resets to 0
            # (claiming deleted commits) nor jumps to the head.
            assert reopened.journal_floor() == 2
            assert reopened.commit_count == 4
            assert read_delta(path, 1) == (4, None)
            assert set(read_delta(path, 2)[1]) == {("cat.widgets", "c")}
        finally:
            reopened.close()

    def test_a_closed_store_refuses_compaction(self, tmp_path):
        store = SqliteCatalogStore(str(tmp_path / "closed.sqlite3"))
        put(store, "a", "title a")
        store.commit()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.compact_journal(retain_commits=0)
        with pytest.raises(RuntimeError, match="closed"):
            store.journal_floor()


class TestJournalFloorGauge:
    @pytest.fixture
    def registry(self):
        registry = MetricsRegistry()
        original = set_registry(registry)
        try:
            yield registry
        finally:
            set_registry(original)

    def test_only_the_sqlite_store_publishes_the_journal_floor(self, registry, tmp_path):
        store = SqliteCatalogStore(str(tmp_path / "gauge.sqlite3"))
        memory = MemoryCatalogStore()
        for key in ("a", "b", "c"):
            put(store, key, f"title {key}")
            store.commit()
            put(memory, key, f"title {key}")
            memory.commit()
        gauges = registry.snapshot()["gauges"]
        assert gauges['journal_floor{backend="sqlite"}'] == 0
        assert store.compact_journal(retain_commits=0) == 3
        gauges = registry.snapshot()["gauges"]
        assert gauges['journal_floor{backend="sqlite"}'] == 3
        assert gauges['store_commit_count{backend="memory"}'] == 3
        assert 'journal_floor{backend="memory"}' not in gauges
        assert not [key for key in gauges if key.startswith("journal_reader_lag")]
        store.close()

    def test_a_closed_store_reads_a_zero_floor(self, registry, tmp_path):
        """The gauge follows the live store; a closed one reads 0 rather
        than failing the scrape."""
        store = SqliteCatalogStore(str(tmp_path / "closedgauge.sqlite3"))
        for key in ("a", "b"):
            put(store, key, f"title {key}")
            store.commit()
        store.compact_journal(retain_commits=0)
        assert registry.snapshot()["gauges"]['journal_floor{backend="sqlite"}'] == 2
        store.close()
        assert registry.snapshot()["gauges"]['journal_floor{backend="sqlite"}'] == 0


class TestServiceFallback:
    def test_truncated_journal_forces_a_full_rebuild(self, tmp_path):
        path = str(tmp_path / "fallback.sqlite3")
        store = SqliteCatalogStore(path)
        put(store, "a", "seed product alpha")
        store.commit()

        service = CatalogSearchService.from_store_path(path)
        try:
            assert service.resync_stats() == {
                "resyncs": 1,
                "delta_resyncs": 0,
                "full_resyncs": 1,
                "journal_truncations": 0,
            }
            # Journal intact: the next resync applies a delta.
            put(store, "b", "second product beta")
            store.commit()
            service.resync()
            assert service.resync_stats()["delta_resyncs"] == 1
            assert service.search("beta")

            # Compacted past our snapshot: fallback, counted distinctly.
            put(store, "c", "third product gamma")
            store.commit()
            store.compact_journal()
            service.resync()
            stats = service.resync_stats()
            assert stats == {
                "resyncs": 3,
                "delta_resyncs": 1,
                "full_resyncs": 2,
                "journal_truncations": 1,
            }
            assert service.search("gamma")
            assert service.num_products == 3
            assert service.stats()["resync"] == stats
        finally:
            service.close()
            store.close()


class TestServiceDeltaApply:
    """A journal delta upserts re-fused products and drops withdrawn ones."""

    @staticmethod
    def put_stable(store, key, title, category="cat.widgets"):
        cluster_id = (category, key)
        store.apply(
            StagedBatch(
                clusters=[] if store.get_cluster(cluster_id) else [cluster_id],
                products={
                    cluster_id: make_product(stable_product_id(*cluster_id), category, title)
                },
            )
        )
        return cluster_id

    def test_a_delta_upserts_a_refused_product(self, tmp_path):
        path = str(tmp_path / "upsert.sqlite3")
        store = SqliteCatalogStore(path)
        cluster_id = self.put_stable(store, "a", "seagate barracuda drive")
        store.commit()
        service = CatalogSearchService.from_store_path(path)
        try:
            assert service.search("seagate")
            self.put_stable(store, "a", "western digital raptor drive")
            store.commit()
            assert service.resync() == 2
            assert service.resync_stats()["delta_resyncs"] == 1
            assert service.num_products == 1
            assert not service.search("seagate")
            assert service.search("raptor")
            product = service.get_product(stable_product_id(*cluster_id))
            assert product is not None and product.title == "western digital raptor drive"
        finally:
            service.close()
            store.close()

    def test_a_delta_removes_a_withdrawn_product(self, tmp_path):
        path = str(tmp_path / "withdraw.sqlite3")
        store = SqliteCatalogStore(path)
        kept = self.put_stable(store, "a", "seagate barracuda drive")
        withdrawn = self.put_stable(store, "b", "kodak film camera", "photo.cameras")
        store.commit()
        service = CatalogSearchService.from_store_path(path)
        try:
            assert service.num_products == 2
            store.apply(StagedBatch(products={withdrawn: None}))
            store.commit()
            assert service.resync() == 2
            assert service.resync_stats()["delta_resyncs"] == 1
            assert service.num_products == 1
            assert service.get_product(stable_product_id(*withdrawn)) is None
            assert service.get_product(stable_product_id(*kept)) is not None
            assert not service.search("kodak")
            assert service.count_by_category() == {"cat.widgets": 1}
        finally:
            service.close()
            store.close()
