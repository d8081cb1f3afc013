"""Tests for the read-only catalog reader and the streaming store reads.

Covers the store's disk-paged ``iter_products`` (no mirror needed) and
the serving reader: snapshot atomicity under a live writer, keyset
paging of ``read_products``, commit-count tagging, and the service's
reader-driven resync.
"""

import pytest

from repro.model.products import product_fingerprint as fingerprint
from repro.runtime import MemoryCatalogStore, SqliteCatalogStore, StagedBatch, SynthesisEngine
from repro.runtime.store.sqlite import BUSY_TIMEOUT_MS
from repro.serving import CatalogReader, CatalogSearchService, reader as reader_module


def make_engine(harness, **kwargs):
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=4,
        **kwargs,
    )


def stream(offers, num_batches):
    size = max(1, (len(offers) + num_batches - 1) // num_batches)
    return [offers[start : start + size] for start in range(0, len(offers), size)]


@pytest.fixture
def populated(tiny_harness, tmp_path):
    """An engine over a SQLite store with the tiny stream fully ingested."""
    path = str(tmp_path / "serving.sqlite3")
    engine = make_engine(tiny_harness, store="sqlite", store_path=path)
    batches = stream(tiny_harness.unmatched_offers, 4)
    for batch in batches:
        engine.ingest(batch)
    yield engine, path, batches
    engine.close()


class TestStoreStreamingReads:
    def test_sqlite_iter_products_matches_committed_listing(self, populated):
        engine, _, _ = populated
        streamed = list(engine.store.iter_products(page_size=7))
        assert fingerprint(streamed) == fingerprint(engine.store.sorted_products())

    def test_sqlite_iter_products_ignores_uncommitted_journal(self, populated):
        engine, _, _ = populated
        store = engine.store
        committed = fingerprint(list(store.iter_products()))
        # Journal a mutation without committing: the mirror changes, the
        # disk page read must not.
        victim = next(
            cluster_id
            for cluster_id, state in store.iter_clusters()
            if state.product is not None
        )
        store.apply(StagedBatch(products={victim: None}))
        assert len(fingerprint(store.sorted_products())) == len(committed) - 1
        assert fingerprint(list(store.iter_products())) == committed
        store.commit()
        assert len(fingerprint(list(store.iter_products()))) == len(committed) - 1

    def test_memory_iter_products_default(self, tiny_harness):
        engine = make_engine(tiny_harness)
        for batch in stream(tiny_harness.unmatched_offers, 3):
            engine.ingest(batch)
        assert fingerprint(list(engine.store.iter_products())) == fingerprint(
            engine.products()
        )
        engine.close()

    def test_commit_count_monotonic_and_persistent(self, tiny_harness, tmp_path):
        memory_store = MemoryCatalogStore()
        memory_store.bind(2)
        assert memory_store.commit_count == 0
        memory_store.commit()
        memory_store.commit()
        assert memory_store.commit_count == 2

        path = str(tmp_path / "counter.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        batches = stream(tiny_harness.unmatched_offers, 3)
        for expected, batch in enumerate(batches, start=1):
            engine.ingest(batch)
            assert engine.store.commit_count == expected
        engine.close()
        resumed = make_engine(tiny_harness, store="sqlite", store_path=path)
        # close() commits once more; the counter survived the reopen.
        assert resumed.store.commit_count == len(batches) + 1
        resumed.close()


class TestCatalogReader:
    def test_requires_an_existing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="read-only"):
            CatalogReader(str(tmp_path / "nope.sqlite3"))

    def test_read_products_matches_writer(self, populated):
        engine, path, _ = populated
        with CatalogReader(path) as reader:
            snapshot, products = reader.read_products()
            assert snapshot == engine.store.commit_count
            assert fingerprint(products) == fingerprint(engine.products())
            assert reader.num_products() == len(products)

    def test_reader_sees_only_committed_batches(self, tiny_harness, tmp_path):
        path = str(tmp_path / "live.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        batches = stream(tiny_harness.unmatched_offers, 4)
        engine.ingest(batches[0])
        reader = CatalogReader(path)
        snapshot, products = reader.read_products()
        assert snapshot == 1
        expected_prefix = fingerprint(engine.products())
        assert fingerprint(products) == expected_prefix
        # A writer commit advances the visible snapshot...
        engine.ingest(batches[1])
        assert reader.commit_count() == 2
        snapshot_2, products_2 = reader.read_products()
        assert snapshot_2 == 2
        assert fingerprint(products_2) == fingerprint(engine.products())
        # ...and journalled-but-uncommitted writes stay invisible.
        store = engine.store
        victim = next(
            cluster_id
            for cluster_id, state in store.iter_clusters()
            if state.product is not None
        )
        store.apply(StagedBatch(products={victim: None}))
        snapshot_3, products_3 = reader.read_products()
        assert (snapshot_3, fingerprint(products_3)) == (2, fingerprint(products_2))
        reader.close()
        engine.close()

    def test_read_products_pages_through_everything(self, populated, monkeypatch):
        engine, path, _ = populated
        monkeypatch.setattr(reader_module, "PAGE_SIZE", 3)
        with CatalogReader(path) as reader:
            snapshot, products = reader.read_products()
        assert len(products) > 3 * 3  # several keyset pages, not one
        assert snapshot == engine.store.commit_count
        assert fingerprint(products) == fingerprint(engine.products())

    def test_read_products_holds_one_snapshot_across_pages(self, populated, monkeypatch):
        """A writer committing between two pages changes nothing the scan sees."""
        engine, path, batches = populated
        monkeypatch.setattr(reader_module, "PAGE_SIZE", 1)
        reader = CatalogReader(path)
        expected = (engine.store.commit_count, fingerprint(engine.products()))
        real_read_page = reader_module.read_product_page
        pages = []

        def read_page_then_commit(connection, after, page_size):
            pages.append(after)
            if len(pages) == 2:
                engine.ingest(batches[0])  # replay: a new snapshot id
            return real_read_page(connection, after, page_size)

        monkeypatch.setattr(reader_module, "read_product_page", read_page_then_commit)
        snapshot, products = reader.read_products()
        assert (snapshot, fingerprint(products)) == expected
        assert reader.commit_count() == expected[0] + 1
        reader.close()

    def test_a_primed_reader_reads_as_a_fresh_one(self, populated):
        """Releasing the page cache after the full scan changes no later read."""
        engine, path, _ = populated
        with CatalogReader(path) as primed, CatalogReader(path) as fresh:
            snapshot, products = primed.read_products()
            assert primed.read_delta(1) == fresh.read_delta(1)
            assert primed.read_products() == (snapshot, products)
            assert primed.num_products() == len(products)
            assert primed.count_by_category() == fresh.count_by_category()

    def test_readers_on_one_file_see_the_same_delta(self, populated):
        """Two replicas reading the same journal range get the same delta."""
        engine, path, _ = populated
        with CatalogReader(path) as first, CatalogReader(path) as second:
            head, delta = first.read_delta(1)
            assert head == engine.store.commit_count
            assert delta
            assert second.read_delta(1) == (head, delta)

    def test_read_delta_is_empty_at_head_and_absent_beyond_it(self, populated):
        engine, path, _ = populated
        head = engine.store.commit_count
        with CatalogReader(path) as reader:
            assert reader.read_delta(head) == (head, {})
            # A snapshot from another store's history proves no coverage.
            assert reader.read_delta(head + 5) == (head, None)

    def test_count_by_category_aggregates_on_disk(self, populated):
        engine, path, _ = populated
        with CatalogReader(path) as reader:
            snapshot, counts = reader.count_by_category()
        expected = {}
        for product in engine.products():
            expected[product.category_id] = expected.get(product.category_id, 0) + 1
        assert counts == expected
        assert snapshot == engine.store.commit_count

    def test_closed_reader_refuses_reads(self, populated):
        _, path, _ = populated
        reader = CatalogReader(path)
        reader.close()
        reader.close()  # idempotent
        assert reader.closed
        with pytest.raises(RuntimeError, match="closed"):
            reader.read_products()

class TestBusyTimeout:
    @pytest.mark.parametrize("role", ["writer", "node-mirror", "reader"])
    def test_every_connection_to_the_file_waits_out_a_lock(self, populated, role):
        """Writer, node mirror and serving reader all wait ``BUSY_TIMEOUT_MS``, not fail."""
        engine, path, _ = populated
        if role == "writer":
            handle, connection = None, engine.store._connection
        elif role == "node-mirror":
            handle = SqliteCatalogStore(path, partition="node-1")
            connection = handle._connection
        else:
            handle = CatalogReader(path)
            connection = handle._connection
        try:
            assert connection.execute("PRAGMA busy_timeout").fetchone()[0] == BUSY_TIMEOUT_MS
        finally:
            if handle is not None:
                handle.close()
        assert BUSY_TIMEOUT_MS == 30_000


class TestReaderDrivenService:
    def test_service_resyncs_on_writer_commits(self, tiny_harness, tmp_path):
        path = str(tmp_path / "svc.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        batches = stream(tiny_harness.unmatched_offers, 4)
        engine.ingest(batches[0])
        service = CatalogSearchService.from_store_path(path)
        assert service.snapshot_commit_count == 1
        prefix_1 = service.count_by_category()
        engine.ingest(batches[1])
        # The next query transparently folds in the new snapshot.
        assert service.maybe_resync()
        assert not service.maybe_resync()
        assert service.snapshot_commit_count == 2
        assert sum(service.count_by_category().values()) >= sum(prefix_1.values())
        stats = service.stats()
        assert stats["reader"] == {"page_cache_hits": 0, "page_cache_misses": 0}
        assert stats["resync"]["resyncs"] >= 2
        service.close()
        engine.close()

    def test_resync_never_moves_the_snapshot_backwards(self, tiny_harness, tmp_path):
        """Racing resyncs must not roll the served index back: applying
        an already-served (or older) snapshot is skipped."""
        path = str(tmp_path / "mono.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers[:10])
        service = CatalogSearchService.from_store_path(path)
        resyncs_after_init = service.stats()["resync"]["resyncs"]
        # Re-applying the current snapshot changes nothing.
        assert service.resync() == service.snapshot_commit_count == 1
        assert service.stats()["resync"]["resyncs"] == resyncs_after_init
        # Advance to snapshot 2 for real...
        engine.ingest(tiny_harness.unmatched_offers[10:20])
        assert service.maybe_resync()
        assert service.snapshot_commit_count == 2
        products_at_2 = service.num_products
        # ...then simulate the lost race: a resync whose read landed on
        # the *older* snapshot (thread overtaken between read and lock)
        # must be discarded, not swapped in.
        real_reader = service._reader

        class StaleReader:
            path = real_reader.path

            def read_products(self):
                return 1, []

            def read_delta(self, since):
                # Journal coverage unavailable: force the full-rebuild
                # path, whose stale read the monotonic guard must drop.
                return 1, None

            def close(self):
                real_reader.close()

            def commit_count(self):
                return real_reader.commit_count()

        service._reader = StaleReader()
        assert service.resync() == 2
        assert service.snapshot_commit_count == 2
        assert service.num_products == products_at_2
        service.close()
        engine.close()

    def test_a_closed_service_has_no_followers(self, populated):
        _, path, _ = populated
        service = CatalogSearchService.from_store_path(path)
        follower = service.follower()
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.follower()
        # The follower keeps the shared reader open, and closes it last.
        assert not follower.reader.closed
        assert follower.resync() == follower.snapshot_commit_count
        follower.close()
        assert follower.reader.closed


class TestResyncStaysFlat:
    def test_100_replay_commits_resync_by_delta_without_growth(
        self, tiny_harness, tmp_path
    ):
        """A replica that primes once and then follows 100 commits only
        applies journal deltas; its index neither grows nor rebuilds."""
        path = str(tmp_path / "resyncs.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        offers = tiny_harness.unmatched_offers
        engine.ingest(offers)
        service = CatalogSearchService.from_store_path(path)
        index_stats = service.stats()["index"]
        for round_number in range(100):
            # Replaying a seen offer still commits: a fresh snapshot id
            # per round with an unchanged catalog.
            engine.ingest([offers[round_number % len(offers)]])
            assert service.maybe_resync()
            assert service.snapshot_commit_count == engine.store.commit_count
        assert service.resync_stats() == {
            "resyncs": 101,
            "delta_resyncs": 100,
            "full_resyncs": 1,
            "journal_truncations": 0,
        }
        assert service.stats()["index"] == index_stats
        service.close()
        engine.close()
