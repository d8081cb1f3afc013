"""Tests for the pluggable catalog state layer.

Covers the CatalogStore backends (memory + durable SQLite), snapshot
durability across simulated process kills, serial/process executor
parity over both stores, and format-1 compatibility of the store file.
"""

import json
import sqlite3

import pytest

from repro.model.offers import Offer
from repro.model.products import Product
from repro.runtime import (
    MemoryCatalogStore,
    SqliteCatalogStore,
    StagedBatch,
    SynthesisEngine,
    resolve_store,
)
from repro.runtime.sharding import shard_for_category
from repro.serving import CatalogReader
from repro.synthesis.reconciliation import ReconciliationStats


from conftest import product_fingerprint as fingerprint


def make_engine(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        **kwargs,
    )


def stream(offers, num_batches):
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


@pytest.fixture(scope="module")
def expected_products(tiny_harness):
    """Products of an uninterrupted serial in-memory run."""
    engine = make_engine(tiny_harness, num_shards=4)
    for batch in stream(tiny_harness.unmatched_offers, 4):
        engine.ingest(batch)
    return fingerprint(engine.products())


class TestCatalogStoreBasics:
    def test_resolve_store(self, tmp_path):
        assert isinstance(resolve_store(None), MemoryCatalogStore)
        assert isinstance(resolve_store("memory"), MemoryCatalogStore)
        sqlite_store = resolve_store("sqlite", path=str(tmp_path / "cat.sqlite3"))
        assert isinstance(sqlite_store, SqliteCatalogStore)
        sqlite_store.close()
        assert resolve_store(sqlite_store) is sqlite_store
        with pytest.raises(ValueError, match="sqlite"):
            resolve_store("sqlite")
        with pytest.raises(ValueError, match="memory"):
            resolve_store("redis")

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_seen_and_versions(self, backend, tmp_path):
        if backend == "memory":
            store = MemoryCatalogStore()
        else:
            store = SqliteCatalogStore(str(tmp_path / "cat.sqlite3"))
        store.bind(4)
        store.apply(StagedBatch(seen=["o-1"]))
        assert store.is_seen("o-1") and not store.is_seen("o-2")
        store.apply(StagedBatch(seen=["o-1", "o-2"]))  # a known id counts once
        assert store.num_seen() == 2
        store.apply(StagedBatch(stats=ReconciliationStats(1, 2, 3, 4)))
        copy = store.reconciliation_stats()
        copy.offers_processed = 99
        assert store.reconciliation_stats().offers_processed == 1
        store.close()

    def test_sqlite_rejects_future_format_untouched(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "future.sqlite3")
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        connection.execute("INSERT INTO meta VALUES ('format_version', '99')")
        connection.commit()
        connection.close()
        with pytest.raises(ValueError, match="format version"):
            SqliteCatalogStore(path)
        # The incompatible file was not mutated: no v1 tables were created.
        connection = sqlite3.connect(path)
        tables = {
            row[0]
            for row in connection.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        connection.close()
        assert tables == {"meta"}

    def test_failed_ingest_is_retryable(self, tiny_harness):
        """A batch that raises mid-pipeline must not poison the dedup set."""
        from repro.matching.correspondence import CorrespondenceSet

        # No classifier: offers without a category make ingest raise.
        engine = SynthesisEngine(
            catalog=tiny_harness.corpus.catalog,
            correspondences=CorrespondenceSet(),
        )
        offer = tiny_harness.corpus.unmatched_offers()[0]
        uncategorised = offer.with_specification(offer.specification)
        uncategorised.category_id = None
        with pytest.raises(ValueError):
            engine.ingest([uncategorised])
        # The failed batch was not absorbed; a corrected retry is fresh.
        report = engine.ingest([uncategorised.with_category("computing.hdd")])
        assert report.offers_new == 1

    def test_sqlite_close_idempotent(self, tmp_path):
        store = SqliteCatalogStore(str(tmp_path / "cat.sqlite3"))
        store.bind(2)
        store.apply(StagedBatch(seen=["o-1"]))
        store.close()
        store.close()
        with pytest.raises(RuntimeError):
            store.commit()

    def test_sqlite_writes_after_close_fail_fast(self, tmp_path):
        """ISSUE 3 satellite: every *store-level* write after close()
        raises clearly, instead of mutating a mirror whose contents can
        never be persisted (the old gap: only commit() failed)."""
        store = SqliteCatalogStore(str(tmp_path / "cat.sqlite3"))
        store.bind(2)
        cluster_id = ("computing.hdd", "key-1")
        store.apply(StagedBatch(seen=["o-1"], clusters=[cluster_id]))
        store.close()
        for batch in (
            StagedBatch(seen=["o-2"]),
            StagedBatch(categories=[("o-2", "computing.hdd")]),
            StagedBatch(clusters=[("computing.hdd", "key-2")]),
            StagedBatch(offers={cluster_id: []}),
            StagedBatch(products={cluster_id: None}),
            StagedBatch(stats=ReconciliationStats()),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                store.apply(batch)
        with pytest.raises(RuntimeError, match="closed"):
            store.advance_shard_epoch(0)
        with pytest.raises(RuntimeError, match="closed"):
            store.rollback()
        # Nothing leaked: reopening shows only the pre-close state.
        reopened = SqliteCatalogStore(str(tmp_path / "cat.sqlite3"))
        assert reopened.num_seen() == 1
        assert reopened.num_clusters() == 1
        reopened.close()

    def test_engine_ingest_fails_fast_on_externally_closed_store(self, tmp_path, tiny_harness):
        """Closing the *store* out from under a live engine (not the
        engine itself) must also refuse the next ingest."""
        store = SqliteCatalogStore(str(tmp_path / "cat.sqlite3"))
        engine = make_engine(tiny_harness, store=store)
        offers = tiny_harness.unmatched_offers
        engine.ingest(offers[:10])
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.ingest(offers[10:20])


class TestSqliteRestore:
    def test_state_round_trips_across_reopen(self, tmp_path, tiny_harness):
        path = str(tmp_path / "cat.sqlite3")
        engine = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        batches = stream(tiny_harness.unmatched_offers, 4)
        for batch in batches:
            engine.ingest(batch)
        snapshot = engine.snapshot()
        products = fingerprint(engine.products())
        engine.close()

        restored = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        restored_snapshot = restored.snapshot()
        assert fingerprint(restored.products()) == products
        assert restored.num_clusters() == snapshot.num_clusters
        assert restored_snapshot.offers_ingested == snapshot.offers_ingested
        assert restored_snapshot.assigned_categories == snapshot.assigned_categories
        assert restored_snapshot.reconciliation_stats == snapshot.reconciliation_stats
        restored.close()

    def test_replayed_offers_deduplicated_after_restore(self, tmp_path, tiny_harness):
        path = str(tmp_path / "cat.sqlite3")
        offers = tiny_harness.unmatched_offers
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(offers)
        before = fingerprint(engine.products())
        engine.close()

        restored = make_engine(tiny_harness, store="sqlite", store_path=path)
        report = restored.ingest(offers)  # the feed re-sends its inventory
        assert report.offers_new == 0
        assert report.offers_duplicate == len(offers)
        assert fingerprint(restored.products()) == before
        restored.close()

    def test_ingest_after_close_fails_fast(self, tmp_path, tiny_harness):
        """A closed durable store cannot absorb offers: the engine must
        refuse instead of marking them seen without persisting them."""
        path = str(tmp_path / "cat.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        offers = tiny_harness.unmatched_offers
        engine.ingest(offers[:20])
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.ingest(offers[20:40])
        # Nothing leaked into the dedup set: a new engine over the same
        # file ingests the refused offers as fresh.
        resumed = make_engine(tiny_harness, store="sqlite", store_path=path)
        report = resumed.ingest(offers[20:40])
        assert report.offers_new == 20
        resumed.close()

    def test_rebind_with_different_shard_count(self, tmp_path, tiny_harness):
        path = str(tmp_path / "cat.sqlite3")
        engine = make_engine(tiny_harness, num_shards=8, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        products = fingerprint(engine.products())
        engine.close()
        restored = make_engine(tiny_harness, num_shards=2, store="sqlite", store_path=path)
        assert fingerprint(restored.products()) == products
        restored.close()


class TestSnapshotDurability:
    """ISSUE 2 satellite: kill mid-stream, reopen, finish, byte-identical."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_kill_and_resume_matches_uninterrupted_run(
        self, tmp_path, tiny_harness, expected_products, executor
    ):
        path = str(tmp_path / f"cat-{executor}.sqlite3")
        batches = stream(tiny_harness.unmatched_offers, 4)
        first = make_engine(
            tiny_harness, num_shards=4, executor=executor, store="sqlite", store_path=path
        )
        for batch in batches[:2]:
            first.ingest(batch)
        # Simulated kill: the engine is abandoned without close(); every
        # ingest committed, so the store file is a consistent snapshot.
        del first

        second = make_engine(
            tiny_harness, num_shards=4, executor=executor, store="sqlite", store_path=path
        )
        for batch in batches[2:]:
            second.ingest(batch)
        assert fingerprint(second.products()) == expected_products
        second.close()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_memory_and_sqlite_stores_byte_identical(
        self, tmp_path, tiny_harness, expected_products, executor
    ):
        path = str(tmp_path / f"parity-{executor}.sqlite3")
        memory = make_engine(tiny_harness, num_shards=4, executor=executor)
        durable = make_engine(
            tiny_harness, num_shards=4, executor=executor, store="sqlite", store_path=path
        )
        for batch in stream(tiny_harness.unmatched_offers, 3):
            memory.ingest(batch)
            durable.ingest(batch)
        assert fingerprint(memory.products()) == expected_products
        assert fingerprint(durable.products()) == expected_products
        memory.close()
        durable.close()


class TestOneEncodePerCommit:
    """A batch encodes each product once; ``clusters`` and the journal share the text."""

    def test_commit_dumps_each_touched_product_once(self, tmp_path, tiny_harness, monkeypatch):
        store = SqliteCatalogStore(str(tmp_path / "cat.sqlite3"))
        engine = make_engine(tiny_harness, num_shards=4, store=store)
        real_dumps, real_set_product = json.dumps, store.set_product
        calls = []

        def counting_dumps(*args, **kwargs):
            calls.append(1)
            return real_dumps(*args, **kwargs)

        def guarded_set_product(cluster_id, product):
            # Products are encoded where apply queues them, not at commit.
            monkeypatch.setattr(json, "dumps", counting_dumps)
            try:
                real_set_product(cluster_id, product)
            finally:
                monkeypatch.setattr(json, "dumps", real_dumps)

        store.set_product = guarded_set_product
        connection = sqlite3.connect(store.path)
        products_seen = 0
        for batch in stream(tiny_harness.unmatched_offers, 4):
            calls.clear()
            engine.ingest(batch)
            (touched,) = connection.execute(
                "SELECT COUNT(*) FROM commit_journal WHERE commit_id = ? AND product IS NOT NULL",
                (store.commit_count,),
            ).fetchone()
            assert len(calls) == touched
            products_seen += touched
        assert products_seen > 0
        connection.close()
        engine.close()

    def test_journal_rows_equal_the_commits_cluster_rows(self, tmp_path, tiny_harness):
        path = str(tmp_path / "cat.sqlite3")
        engine = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        connection = sqlite3.connect(path)
        rows_checked = 0
        for batch in stream(tiny_harness.unmatched_offers, 6):
            engine.ingest(batch)
            rows = connection.execute(
                "SELECT j.product, c.product FROM commit_journal AS j"
                " JOIN clusters AS c USING (category_id, cluster_key)"
                " WHERE j.commit_id = ?",
                (engine.store.commit_count,),
            ).fetchall()
            assert rows
            for journal_text, cluster_text in rows:
                assert journal_text == cluster_text
            rows_checked += len(rows)
        assert rows_checked >= len(engine.products())
        connection.close()
        engine.close()

    def test_file_with_legacy_category_stats_row_resumes(
        self, tmp_path, tiny_harness, expected_products
    ):
        """Files that carry the former per-category TF-IDF rows open and resume."""
        path = str(tmp_path / "cat.sqlite3")
        batches = stream(tiny_harness.unmatched_offers, 4)
        first = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        for batch in batches[:2]:
            first.ingest(batch)
        first.close()
        connection = sqlite3.connect(path)
        # The row as the former per-category statistics serialised it.
        legacy = {"num_documents": 1, "document_frequency": {"wd": 1, "raptor": 1}}
        connection.execute(
            "INSERT OR REPLACE INTO category_stats (category_id, stats) VALUES (?, ?)",
            ("computing.hdd", json.dumps(legacy)),
        )
        connection.commit()
        connection.close()

        second = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        for batch in batches[2:]:
            second.ingest(batch)
        assert fingerprint(second.products()) == expected_products
        second.close()
        connection = sqlite3.connect(path)
        assert connection.execute("SELECT COUNT(*) FROM category_stats").fetchone() == (1,)
        connection.close()


class TestProcessExecutor:
    """The process executor re-fuses through the same full-state path as serial."""

    @pytest.mark.parametrize("store", ["memory", "sqlite"])
    def test_serial_and_process_executors_agree(self, tmp_path, tiny_harness, store):
        """Feed-ordered stream (clusters grow across batches): equal
        products and equal payload accounting, over either store."""
        engines = {
            executor: make_engine(
                tiny_harness,
                num_shards=4,
                executor=executor,
                store=store,
                store_path=str(tmp_path / f"{executor}.sqlite3"),
            )
            for executor in ("serial", "process")
        }
        offers = sorted(tiny_harness.unmatched_offers, key=lambda o: o.merchant_id)
        for batch in stream(offers, 4):
            for engine in engines.values():
                engine.ingest(batch)
        serial, process = engines["serial"], engines["process"]
        assert serial.products()
        assert fingerprint(process.products()) == fingerprint(serial.products())
        assert process.transport_stats().to_dict() == serial.transport_stats().to_dict()
        stats = serial.transport_stats()
        assert stats.batches == 4
        assert stats.worker_resyncs == 0
        assert stats.clusters_shipped >= stats.shard_tasks > 0
        for engine in engines.values():
            engine.close()

    def test_pool_comes_back_after_close_mid_stream(self, tiny_harness, expected_products):
        engine = make_engine(tiny_harness, num_shards=4, executor="process")
        batches = stream(tiny_harness.unmatched_offers, 4)
        for batch in batches[:2]:
            engine.ingest(batch)
        engine._executor.close()
        for batch in batches[2:]:
            engine.ingest(batch)
        assert fingerprint(engine.products()) == expected_products
        engine.close()


class TestFormatOneShardVersions:
    """``shard_versions`` is no longer read or written, but format-1 files keep it."""

    def test_a_new_file_still_has_the_shard_versions_table(self, tmp_path, tiny_harness):
        path = str(tmp_path / "cat.sqlite3")
        engine = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        engine.close()
        connection = sqlite3.connect(path)
        columns = [row[1] for row in connection.execute("PRAGMA table_info(shard_versions)")]
        assert columns == ["shard", "version"]
        assert connection.execute("SELECT COUNT(*) FROM shard_versions").fetchone() == (0,)
        connection.close()

    def test_a_file_with_shard_versions_rows_resumes(
        self, tmp_path, tiny_harness, expected_products
    ):
        path = str(tmp_path / "cat.sqlite3")
        batches = stream(tiny_harness.unmatched_offers, 4)
        first = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        for batch in batches[:2]:
            first.ingest(batch)
        first.close()
        connection = sqlite3.connect(path)
        # The counters an older process-executor engine left behind.
        connection.executemany(
            "INSERT INTO shard_versions (shard, version) VALUES (?, ?)",
            [(0, 2), (1, 1), (3, 2)],
        )
        connection.commit()
        connection.close()

        second = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        for batch in batches[2:]:
            second.ingest(batch)
        assert fingerprint(second.products()) == expected_products
        second.close()
        connection = sqlite3.connect(path)
        assert connection.execute("SELECT COUNT(*) FROM shard_versions").fetchone() == (3,)
        connection.close()


class TestPartitionedSharedStore:
    """The multi-process contract of the SQLite store: one writer, and
    nodes whose ``partition=`` stores are read-only mirrors that hand
    their batches over as journals."""

    def test_node_journals_land_in_one_commit(self, tmp_path):
        """Two node mirrors journal disjoint rows; the writer lands both
        in one transaction: one commit id, one journal entry naming both
        clusters, and the counters added to the one global row."""
        path = str(tmp_path / "shared.sqlite3")
        coordinator = SqliteCatalogStore(path)
        coordinator.bind(4)
        epochs = {shard: coordinator.advance_shard_epoch(shard) for shard in range(4)}
        journals = []
        for node_id, category, stats in [
            ("node-a", "cat-a", ReconciliationStats(10, 5, 3, 2)),
            ("node-b", "cat-b", ReconciliationStats(1, 1, 1, 1)),
        ]:
            node = SqliteCatalogStore(path, partition=node_id)
            node.bind(4)
            cluster_id = (category, "key")
            node.apply(
                StagedBatch(
                    seen=[f"offer-{category}"],
                    stats=stats,
                    clusters=[cluster_id],
                    products={cluster_id: Product(product_id=category, category_id=category)},
                )
            )
            journals.append(node.drain_journal(epochs))
            node.close()
        assert coordinator.write_journals(journals) == 1
        assert coordinator.commit_count == 1
        assert coordinator.committed_num_seen() == 2
        assert coordinator.committed_reconciliation_stats() == ReconciliationStats(11, 6, 4, 3)
        # At head 1, the delta since 0 is exactly commit 1's entry.
        reader = CatalogReader(path)
        head, touched = reader.read_delta(0)
        reader.close()
        assert head == 1
        assert sorted(touched) == [("cat-a", "key"), ("cat-b", "key")]
        coordinator.close()

        reader = SqliteCatalogStore(path)
        reader.bind(4)
        assert reader.reconciliation_stats() == ReconciliationStats(11, 6, 4, 3)
        reader.close()

    def test_a_node_mirror_cannot_write_the_file(self, tmp_path):
        path = str(tmp_path / "readonly.sqlite3")
        writer = SqliteCatalogStore(path)
        writer.close()
        node = SqliteCatalogStore(path, partition="node-1")
        node.bind(4)
        node.apply(StagedBatch(seen=["offer-1"]))
        for write in (node.commit, lambda: node.advance_shard_epoch(0)):
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                write()
        assert node.shard_epoch(0) == 0
        node.close()
        reopened = SqliteCatalogStore(path)
        assert reopened.commit_count == writer.commit_count and reopened.num_seen() == 0
        reopened.close()

    def test_a_journal_with_a_stale_epoch_is_refused_and_nothing_lands(self, tmp_path):
        """The node journalled under epoch 1 of shard 2; the coordinator
        fenced the shard to epoch 2 before writing.  The write refuses
        the journal inside its transaction and the file is unchanged."""
        from repro.runtime import StaleEpochError

        path = str(tmp_path / "epochs.sqlite3")
        coordinator = SqliteCatalogStore(path)
        coordinator.bind(4)
        granted = coordinator.advance_shard_epoch(2)
        node = SqliteCatalogStore(path, partition="node-1")
        node.bind(4)
        node.apply(StagedBatch(seen=["offer-1"], stats=ReconciliationStats(1, 1, 1, 1)))
        journal = node.drain_journal({2: granted})
        coordinator.advance_shard_epoch(2)
        with pytest.raises(StaleEpochError, match="epoch 1 but the store is at epoch 2"):
            coordinator.write_journals([journal])
        assert coordinator.commit_count == 0
        assert coordinator.committed_num_seen() == 0
        assert coordinator.committed_reconciliation_stats() == ReconciliationStats()
        journal.epochs = {2: 2}
        assert coordinator.write_journals([journal]) == 1
        assert coordinator.committed_num_seen() == 1
        node.close()
        coordinator.close()

    def test_partition_rows_of_older_clusters_still_count_once(self, tmp_path):
        """Files older clusters wrote hold per-node reconciliation rows:
        every read sums them into the totals, and a writer's commits add
        to the global row beside them, so reopening never double-counts."""
        path = str(tmp_path / "absorb.sqlite3")
        older = SqliteCatalogStore(path)
        older.close()
        connection = sqlite3.connect(path)
        connection.execute("INSERT INTO node_reconciliation_stats VALUES ('node-1', 10, 5, 3, 2)")
        connection.commit()
        connection.close()

        resumed = SqliteCatalogStore(path)
        resumed.bind(4)
        assert resumed.reconciliation_stats() == ReconciliationStats(10, 5, 3, 2)
        resumed.apply(StagedBatch(stats=ReconciliationStats(1, 1, 1, 1)))
        resumed.commit()
        assert resumed.committed_reconciliation_stats() == ReconciliationStats(11, 6, 4, 3)
        resumed.close()

        for _ in range(2):  # stable across repeated reopens
            reopened = SqliteCatalogStore(path)
            reopened.bind(4)
            assert reopened.reconciliation_stats() == ReconciliationStats(11, 6, 4, 3)
            reopened.close()

    def test_a_leftover_commit_intent_is_refused_at_open(self, tmp_path):
        path = str(tmp_path / "intent.sqlite3")
        SqliteCatalogStore(path).close()
        connection = sqlite3.connect(path)
        connection.execute("INSERT INTO commit_intents VALUES (1, 7, x'00')")
        connection.commit()
        connection.close()
        with pytest.raises(ValueError, match="commit intent left by an older") as raised:
            SqliteCatalogStore(path)
        assert "\n" not in str(raised.value)

    def test_committed_reads_see_other_connections_commits(self, tmp_path):
        """A reader's committed reads show what another connection
        committed after the reader opened; its own mirror does not."""
        path = str(tmp_path / "committed.sqlite3")
        writer = SqliteCatalogStore(path)
        writer.bind(2)
        reader = SqliteCatalogStore(path)
        reader.bind(2)
        cluster_id = ("cat", "key")
        product = Product(product_id="p-1", category_id="cat", title="a product")
        offer = Offer(offer_id="offer-1", merchant_id="m", title="an offer", price=1.0, url="u")
        writer.apply(
            StagedBatch(
                seen=["offer-1"],
                categories=[("offer-1", "cat")],
                stats=ReconciliationStats(1, 4, 3, 1),
                clusters=[cluster_id],
                offers={cluster_id: [offer]},
                products={cluster_id: product},
            )
        )
        assert writer.is_seen("offer-1")
        writer.commit()

        assert not reader.is_seen("offer-1")  # the mirror is as of open, by design
        assert reader.committed_num_seen() == 1
        assert reader.committed_assigned_categories() == {"offer-1": "cat"}
        assert reader.committed_num_clusters() == 1
        assert reader.committed_shard_loads() == {shard_for_category("cat", 2): 1.0}
        assert reader.committed_reconciliation_stats() == ReconciliationStats(1, 4, 3, 1)
        assert list(reader.iter_products()) == [product]
        writer.close()
        reader.close()

    def test_committed_reads_skip_the_readers_own_journal(self, tmp_path):
        """Mutations journalled but not committed are invisible to the
        committed reads of the very instance that holds them."""
        store = SqliteCatalogStore(str(tmp_path / "pending.sqlite3"))
        store.bind(2)
        cluster_id = ("cat", "key")
        store.apply(
            StagedBatch(
                seen=["offer-1"],
                categories=[("offer-1", "cat")],
                stats=ReconciliationStats(1, 1, 1, 0),
                clusters=[cluster_id],
                products={cluster_id: Product(product_id="p-1", category_id="cat", title="t")},
            )
        )
        assert store.is_seen("offer-1") and store.num_clusters() == 1  # the mirror has them
        assert store.committed_num_seen() == 0
        assert store.committed_assigned_categories() == {}
        assert store.committed_num_clusters() == 0
        assert store.committed_shard_loads() == {}
        assert store.committed_reconciliation_stats() == ReconciliationStats()
        assert list(store.iter_products()) == []
        store.commit()
        assert store.committed_num_seen() == 1
        assert store.committed_num_clusters() == 1
        assert store.committed_reconciliation_stats() == ReconciliationStats(1, 1, 1, 0)
        store.close()

    def test_refresh_shards_is_idempotent_over_engine_state(self, tmp_path, tiny_harness):
        """Refreshing a shard that is already current must be a no-op:
        clusters, offer order and products survive the reload exactly."""
        path = str(tmp_path / "handoff.sqlite3")
        engine = make_engine(tiny_harness, num_shards=4, store="sqlite", store_path=path)
        for batch in stream(tiny_harness.unmatched_offers, 2):
            engine.ingest(batch)
        engine.close()

        node = SqliteCatalogStore(path, partition="node-1")
        node.bind(4)
        before = {
            cluster_id: (state.size(), state.product)
            for cluster_id, state in node.iter_clusters()
        }
        populated = {state.shard_index for _, state in node.iter_clusters()}
        assert populated
        node.refresh_shards(sorted(populated))
        after = {
            cluster_id: (state.size(), state.product)
            for cluster_id, state in node.iter_clusters()
        }
        assert after == before
        node.close()

    def test_refresh_shards_picks_up_new_owner_state(self, tmp_path):
        """Writer appends to a cluster, fences the shard and commits; a
        node's mirror lags until refresh_shards reloads that shard and
        the epochs."""
        from repro.runtime.sharding import shard_for_category

        path = str(tmp_path / "gain.sqlite3")
        num_shards = 4
        writer = SqliteCatalogStore(path)
        writer.bind(num_shards)
        reader = SqliteCatalogStore(path, partition="node-2")
        reader.bind(num_shards)

        category = "computing.hdd"
        shard = shard_for_category(category, num_shards)
        cluster_id = (category, "key-1")
        offer = Offer(
            offer_id="o-1",
            merchant_id="m-1",
            title="a drive",
            price=10.0,
            url="http://example.com/o-1",
        )
        writer.apply(StagedBatch(clusters=[cluster_id], offers={cluster_id: [offer]}))
        writer.commit()
        writer.advance_shard_epoch(shard)

        assert reader.get_cluster(cluster_id) is None  # stale, by design
        assert reader.shard_epoch(shard) == 0
        reader.refresh_shards([shard])
        assert reader.shard_epoch(shard) == 1
        state = reader.get_cluster(cluster_id)
        assert state is not None
        assert state.size() == 1
        assert state.cluster.offers[0].offer_id == "o-1"
        assert state.shard_index == shard
        writer.close()
        reader.close()
