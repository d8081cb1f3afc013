"""Tests for the changed-cluster commit journal (ISSUE 9 tentpole).

Every engine flavor must durably record, at each commit barrier, which
clusters that commit touched — so serving readers can resync by
applying per-commit deltas instead of rebuilding.  Covered here:

* the memory store's bounded ring (entries, newest-wins folding,
  eviction raising the floor, compaction) and the SQLite store's
  ``commit_journal`` table (persistence across reopen, folding);
* per-commit journal entries on single-engine runs over both store
  backends, and journal coverage of multi-node and multi-process
  cluster runs (every flavor commits through the same barrier);
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
from repro.runtime import (
    MemoryCatalogStore,
    MultiNodeEngine,
    MultiProcessEngine,
    SynthesisEngine,
)
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
    if store.get_cluster(cluster_id) is None:
        store.create_cluster(0, cluster_id)
    store.set_product(
        cluster_id, make_product(f"p-{key}", category, title)
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


def assert_journal_folds_to_catalog(store, products):
    """The journal replayed from commit 0 reproduces the full catalog."""
    delta = store.read_journal_delta(0)
    assert delta is not None
    survivors = [product for product in delta.values() if product is not None]
    assert sorted(fingerprint(survivors)) == sorted(fingerprint(products))


class TestMemoryJournalRing:
    def test_entries_cover_commits_and_fold_newest_wins(self):
        store = MemoryCatalogStore()
        cluster_id = put(store, "a", "first title")
        store.commit()
        put(store, "a", "second title")
        put(store, "b", "other product")
        store.commit()

        entries = store.journal_entries(0)
        assert [commit_id for commit_id, _ in entries] == [1, 2]
        assert dict(entries[0][1])[cluster_id].title == "first title"
        delta = store.read_journal_delta(0)
        assert delta[cluster_id].title == "second title"
        assert len(delta) == 2
        # A resync already at head applies an empty delta.
        assert store.read_journal_delta(2) == {}

    def test_empty_commit_is_covered_without_an_entry(self):
        store = MemoryCatalogStore()
        put(store, "a", "title")
        store.commit()
        store.commit()  # nothing touched
        assert store.commit_count == 2
        assert store.journal_floor() == 0
        assert [commit_id for commit_id, _ in store.journal_entries(1)] == []
        assert store.read_journal_delta(1) == {}

    def test_ring_eviction_raises_the_floor(self):
        store = MemoryCatalogStore(journal_ring_size=2)
        for key in ("a", "b", "c"):
            put(store, key, f"title {key}")
            store.commit()
        assert store.journal_floor() == 1
        # Since-0 now reaches below the floor: coverage is gone.
        assert store.journal_entries(0) is None
        assert store.read_journal_delta(0) is None
        assert [commit_id for commit_id, _ in store.journal_entries(1)] == [2, 3]

    def test_compaction_and_validation(self):
        store = MemoryCatalogStore()
        for key in ("a", "b", "c"):
            put(store, key, f"title {key}")
            store.commit()
        assert store.compact_journal(retain_commits=1) == 2
        assert store.journal_entries(1) is None
        assert [commit_id for commit_id, _ in store.journal_entries(2)] == [3]
        with pytest.raises(ValueError, match="retain_commits"):
            store.compact_journal(retain_commits=-1)
        with pytest.raises(ValueError, match="journal_ring_size"):
            MemoryCatalogStore(journal_ring_size=0)
        # Asking for the future is not coverage either.
        assert store.journal_entries(store.commit_count + 1) is None


class TestSqliteJournal:
    def test_journal_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "journal.sqlite3")
        store = SqliteCatalogStore(path)
        cluster_id = put(store, "a", "durable title")
        store.commit()
        store.close()

        reopened = SqliteCatalogStore(path)
        try:
            assert reopened.journal_floor() == 0
            entries = reopened.journal_entries(0)
            assert [commit_id for commit_id, _ in entries] == [1]
            assert dict(entries[0][1])[cluster_id].title == "durable title"
        finally:
            reopened.close()

    def test_crash_at_the_journal_fault_point_rolls_back_cleanly(self, tmp_path):
        path = str(tmp_path / "crash.sqlite3")
        store = SqliteCatalogStore(path)
        put(store, "a", "committed before the crash")
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
        assert store.journal_entries(0) is not None
        assert [commit_id for commit_id, _ in store.journal_entries(0)] == [head]

        # Replaying the batch lands it intact, journal included.
        cluster_id = put(store, "b", "replayed after the crash")
        store.commit()
        assert store.commit_count == head + 1
        entries = store.journal_entries(head)
        assert [commit_id for commit_id, _ in entries] == [head + 1]
        assert dict(entries[0][1])[cluster_id].title == "replayed after the crash"

        reader = CatalogReader(path)
        try:
            new_head, delta = reader.read_delta(head)
            assert new_head == head + 1
            assert delta is not None
            assert delta[cluster_id].title == "replayed after the crash"
        finally:
            reader.close()
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

        reader = CatalogReader(path)
        try:
            seen_head, delta = reader.read_delta(0)
            assert seen_head == head
            assert delta is None
        finally:
            reader.close()

        # Reopening through the store recreates the journal with a floor
        # at the current head: old commits are never claimed as covered.
        reopened = SqliteCatalogStore(path)
        try:
            assert reopened.journal_floor() == reopened.commit_count == head
            assert reopened.journal_entries(0) is None
            assert reopened.journal_entries(head) == []
        finally:
            reopened.close()


class TestJournalPerCommit:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_each_commit_journals_the_clusters_it_touched(
        self, tiny_harness, tmp_path, backend
    ):
        store_path = (
            str(tmp_path / "journal.sqlite3") if backend == "sqlite" else None
        )
        engine = make_engine(tiny_harness, store=backend, store_path=store_path)
        for batch in feed_stream(tiny_harness):
            report = engine.ingest(batch)
            commit = engine.store.commit_count
            entries = engine.store.journal_entries(commit - 1)
            assert entries is not None
            journal = dict(dict(entries).get(commit, []))
            # The commit's journal entry names at least every cluster the
            # batch touched, each with the store's post-commit product.
            assert len(journal) >= report.clusters_touched
            for cluster_id, recorded in journal.items():
                product = engine.store.get_cluster(cluster_id).product
                assert (recorded is None) == (product is None)
                if product is not None:
                    assert fingerprint([recorded]) == fingerprint([product])
        assert_journal_folds_to_catalog(engine.store, engine.products())
        engine.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_every_ingest_is_one_commit_and_the_newest_entry_wins(
        self, tiny_harness, tmp_path, backend
    ):
        store_path = (
            str(tmp_path / "newest.sqlite3") if backend == "sqlite" else None
        )
        engine = make_engine(tiny_harness, store=backend, store_path=store_path)
        batches = feed_stream(tiny_harness)
        commit_counts = []
        for batch in batches:
            engine.ingest(batch)
            commit_counts.append(engine.store.commit_count)
        assert commit_counts == list(range(1, len(batches) + 1))

        entries = engine.store.journal_entries(0)
        assert entries is not None
        assert {commit_id for commit_id, _ in entries} <= set(commit_counts)
        latest = {}
        for _, touched in entries:
            for cluster_id, product in touched:
                if product is not None:
                    assert product.product_id == stable_product_id(*cluster_id)
                latest[cluster_id] = product
        # The newest entry per cluster carries the store's post-commit
        # product (earlier entries carried since-replaced generations).
        for cluster_id, recorded in latest.items():
            state = engine.store.get_cluster(cluster_id)
            assert state is not None
            assert (recorded is None) == (state.product is None)
            if recorded is not None:
                assert fingerprint([recorded]) == fingerprint([state.product])
        engine.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_replayed_batch_commits_without_a_journal_entry(
        self, tiny_harness, tmp_path, backend
    ):
        store_path = (
            str(tmp_path / "replay.sqlite3") if backend == "sqlite" else None
        )
        engine = make_engine(tiny_harness, store=backend, store_path=store_path)
        batch = tiny_harness.unmatched_offers[:10]
        engine.ingest(batch)
        report = engine.ingest(batch)  # full replay: deduplicated, still committed
        assert report.offers_duplicate == len(batch)
        assert report.clusters_touched == 0
        assert engine.store.commit_count == 2
        assert engine.store.journal_entries(1) == []
        assert engine.store.read_journal_delta(1) == {}
        engine.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_folding_every_entry_reconstructs_the_catalog(
        self, tiny_harness, tmp_path, backend
    ):
        """Applying each commit's entry, oldest first, to a plain dict
        reproduces products() — the contract the serving index builds on."""
        store_path = (
            str(tmp_path / "fold.sqlite3") if backend == "sqlite" else None
        )
        engine = make_engine(tiny_harness, store=backend, store_path=store_path)
        for batch in feed_stream(tiny_harness, num_batches=4):
            engine.ingest(batch)
        mirror = {}
        for _, touched in engine.store.journal_entries(0):
            for cluster_id, product in touched:
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


class TestClusterJournalCoverage:
    def test_multi_node_commits_are_journalled(self, tiny_harness):
        cluster = MultiNodeEngine(
            catalog=tiny_harness.corpus.catalog,
            correspondences=tiny_harness.offline_result.correspondences,
            extractor=tiny_harness.extractor,
            category_classifier=tiny_harness.category_classifier,
            num_nodes=2,
            num_shards=8,
        )
        for batch in feed_stream(tiny_harness):
            cluster.ingest(batch)
        assert_journal_folds_to_catalog(cluster.store, cluster.products())
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
        # The node processes are gone; the journal rows they wrote at
        # their commit barriers must survive in the shared file.
        store = SqliteCatalogStore(path)
        try:
            assert_journal_folds_to_catalog(store, products)
        finally:
            store.close()


class TestAutoCompaction:
    """``compact_journal(auto=True)`` tracks reader lag."""

    def test_auto_floor_stops_at_the_deepest_observed_reader(self):
        store = MemoryCatalogStore()
        for key in ("a", "b", "c"):
            put(store, key, f"title {key}")
            store.commit()
        # A reader proves delta coverage from commit 1 (lag 2).
        assert store.journal_entries(1) is not None
        assert store.journal_reader_lag() == 2
        put(store, "d", "title d")
        store.commit()
        # Auto compaction may only raise the floor to that reader's
        # position, never past it.
        assert store.compact_journal(auto=True) == 1
        assert store.journal_entries(0) is None
        assert store.journal_entries(1) is not None

    def test_auto_without_observed_readers_keeps_everything(self):
        store = MemoryCatalogStore()
        for key in ("a", "b"):
            put(store, key, f"title {key}")
            store.commit()
        # No journal_entries() call since the store was created: the
        # auto pass has no evidence and must not truncate.
        assert store.compact_journal(auto=True) == 0
        # A reader proven at 0 pins the floor there.
        assert store.journal_entries(0) is not None
        assert store.compact_journal(auto=True) == 0
        # Each pass consumes the observation window: once only a reader
        # at 1 is seen, the old position no longer holds the floor down.
        assert store.journal_entries(1) is not None
        assert store.compact_journal(auto=True) == 1
        # And with no fresh observation the floor simply holds.
        assert store.compact_journal(auto=True) == 1

    def test_auto_retains_the_slowest_of_several_readers(self):
        store = MemoryCatalogStore()
        for key in ("a", "b", "c", "d"):
            put(store, key, f"title {key}")
            store.commit()
        # A fast reader at 3 and a slow one at 1: retention follows the
        # slow one, whichever order they polled in.
        assert store.journal_entries(3) is not None
        assert store.journal_entries(1) is not None
        assert store.journal_reader_lag() == 3
        assert store.compact_journal(auto=True) == 1
        assert store.journal_entries(1) is not None

    def test_sqlite_auto_floor_matches_memory_semantics(self, tmp_path):
        store = SqliteCatalogStore(str(tmp_path / "auto.sqlite3"))
        try:
            for key in ("a", "b", "c"):
                put(store, key, f"title {key}")
                store.commit()
            assert store.journal_entries(2) is not None
            assert store.compact_journal(auto=True) == 2
            assert store.journal_entries(1) is None
            assert store.journal_entries(2) is not None
            # No fresh observation: the next pass keeps the floor.
            assert store.compact_journal(auto=True) == 2
        finally:
            store.close()

    def test_slow_reader_never_loses_delta_coverage(self, tmp_path):
        """A polling-but-slow reader always delta-syncs under auto compaction.

        The writer commits twice and auto-compacts *every* cycle while a
        slow reader polls ``read_journal_delta`` through the store API
        only every other cycle.  Because the auto floor stops at the
        deepest position the reader proved coverage from, the reader is
        never forced onto the full-rebuild fallback — every poll yields
        a delta — while the floor demonstrably rises behind it.
        """
        path = str(tmp_path / "slowreader.sqlite3")
        store = SqliteCatalogStore(path)
        try:
            sequence = 0
            put(store, f"k{sequence}", "seed product")
            store.commit()
            snapshot = store.commit_count
            mirror = dict(store.read_journal_delta(0))
            fallbacks = 0
            for cycle in range(1, 9):
                for _ in range(2):
                    sequence += 1
                    put(store, f"k{sequence}", f"product number {sequence}")
                    store.commit()
                if cycle % 2 == 0:
                    delta = store.read_journal_delta(snapshot)
                    if delta is None:
                        fallbacks += 1
                    else:
                        mirror.update(delta)
                        snapshot = store.commit_count
                store.compact_journal(auto=True)
            assert fallbacks == 0
            # The floor really rose — compaction is not vacuous — yet
            # never past the reader's pinned snapshot.
            assert 0 < store.journal_floor() <= snapshot
            # Catch up and verify the delta-maintained mirror matches.
            delta = store.read_journal_delta(snapshot)
            assert delta is not None
            mirror.update(delta)
            survivors = [product for product in mirror.values() if product is not None]
            assert len(survivors) == sequence + 1
        finally:
            store.close()

    def test_unobserved_cross_process_readers_keep_the_journal_intact(self, tmp_path):
        """Cross-process readers are invisible — so auto keeps everything.

        A :class:`CatalogReader`-backed service polls through its own
        read-only connection, which the writer's store instance cannot
        observe.  The safe default the auto pass must take is to not
        truncate at all: the slow service keeps delta-syncing and never
        falls back to a full rebuild.
        """
        path = str(tmp_path / "crossproc.sqlite3")
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
                store.compact_journal(auto=True)
                if cycle % 2 == 0:
                    service.resync()
            service.resync()
            stats = service.resync_stats()
            assert stats["full_resyncs"] == 1
            assert stats["journal_truncations"] == 0
            assert stats["delta_resyncs"] >= 4
            assert service.num_products == sequence + 1
            # No observed reader -> the journal floor never moved.
            assert store.journal_floor() == 0
        finally:
            service.close()
            store.close()


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
        if store.get_cluster(cluster_id) is None:
            store.create_cluster(0, cluster_id)
        store.set_product(
            cluster_id, make_product(stable_product_id(*cluster_id), category, title)
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
            store.set_product(withdrawn, None)
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
