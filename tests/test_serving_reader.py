"""Tests for the read-only catalog reader and the streaming store reads.

Covers the ISSUE 5 satellite (disk-paged ``iter_products`` without the
mirror) and the reader half of the tentpole: snapshot atomicity under a
live writer, commit-count tagging, the LRU page cache, and the
mid-iteration staleness guard.
"""

import pytest

from repro.model.products import product_fingerprint as fingerprint
from repro.runtime import MemoryCatalogStore, SynthesisEngine
from repro.serving import CatalogReader, CatalogSearchService, StaleSnapshotError


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
        store.set_product(victim, None)
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
        store.set_product(victim, None)
        snapshot_3, products_3 = reader.read_products()
        assert (snapshot_3, fingerprint(products_3)) == (2, fingerprint(products_2))
        reader.close()
        engine.close()

    def test_page_cache_serves_repeated_scans(self, populated):
        _, path, _ = populated
        reader = CatalogReader(path, page_size=8)
        first = reader.read_products()
        second = reader.read_products()
        assert first == second
        stats = reader.cache_stats()
        assert stats["page_cache_hits"] > 0
        assert stats["cached_pages"] > 0
        reader.close()

    def test_page_cache_invalidated_by_writer_commit(self, populated):
        engine, path, batches = populated
        reader = CatalogReader(path, page_size=8)
        reader.read_products()
        misses_before = reader.cache_stats()["page_cache_misses"]
        # Replaying an already-seen batch still commits (a new snapshot
        # id), so the cache generation moves even though nothing changed.
        engine.ingest(batches[0])
        reader.read_products()
        assert reader.cache_stats()["page_cache_misses"] > misses_before
        reader.close()

    def test_iter_products_pages_through_everything(self, populated):
        engine, path, _ = populated
        with CatalogReader(path, page_size=3) as reader:
            streamed = list(reader.iter_products())
        assert fingerprint(streamed) == fingerprint(engine.products())

    def test_iter_products_raises_on_mid_scan_commit(self, populated):
        engine, path, batches = populated
        reader = CatalogReader(path, page_size=1)
        iterator = reader.iter_products()
        next(iterator)
        engine.ingest(batches[0])  # replay: commits, bumping the snapshot
        with pytest.raises(StaleSnapshotError, match="restart"):
            for _ in iterator:
                pass
        reader.close()

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

    def test_rejects_bad_page_size(self, populated):
        _, path, _ = populated
        with pytest.raises(ValueError, match="page_size"):
            CatalogReader(path, page_size=0)
        with CatalogReader(path) as reader:
            with pytest.raises(ValueError, match="page_size"):
                list(reader.iter_products(page_size=0))


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
        assert stats["mode"] == "reader"
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

            def cache_stats(self):
                return real_reader.cache_stats()

        service._reader = StaleReader()
        assert service.resync() == 2
        assert service.snapshot_commit_count == 2
        assert service.num_products == products_at_2
        service.close()
        engine.close()

    def test_resync_requires_reader_mode(self, tiny_harness):
        engine = make_engine(tiny_harness)
        service = CatalogSearchService.from_engine(engine)
        with pytest.raises(RuntimeError, match="reader-driven"):
            service.resync()
        service.close()
        engine.close()


class TestPageCacheBoundedAcrossSnapshots:
    """ISSUE 8 satellite: dead-snapshot pages must not accumulate."""

    def test_memory_flat_across_100_resyncs(self, tiny_harness, tmp_path):
        path = str(tmp_path / "resyncs.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        offers = tiny_harness.unmatched_offers
        engine.ingest(offers)

        reader = CatalogReader(path, page_size=4, max_cached_pages=1000)
        snapshot, products = reader.read_products()
        # One full scan's footprint: every product page plus the empty
        # terminator page that ends the keyset walk.
        pages_per_scan = len(products) // 4 + 1 + (1 if len(products) % 4 else 0)
        assert reader.cache_stats()["cached_pages"] == pages_per_scan
        assert pages_per_scan > 3  # the bound below must be meaningful

        for round_number in range(100):
            # Replaying seen offers still commits: a fresh snapshot id
            # per round, with identical page contents under new keys.
            engine.ingest([offers[round_number % len(offers)]])
            head = reader.commit_count()
            resynced, _ = reader.read_products()
            assert resynced == head
            stats = reader.cache_stats()
            # Flat memory: never more than one snapshot's pages resident,
            # even though the LRU bound (1000) would allow ~25 snapshots.
            assert stats["cached_pages"] <= pages_per_scan
            assert stats["peak_cached_pages"] <= pages_per_scan

        stats = reader.cache_stats()
        assert stats["pages_evicted"] >= 100 * (pages_per_scan - 1)
        reader.close()
        engine.close()

    def test_lag_polling_alone_evicts_dead_snapshot_pages(self, tiny_harness, tmp_path):
        """commit_count() — what a lag probe calls — must already evict."""
        path = str(tmp_path / "lagpoll.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        reader = CatalogReader(path, page_size=8)
        reader.read_products()
        assert reader.cache_stats()["cached_pages"] > 0
        engine.ingest([tiny_harness.unmatched_offers[0]])
        reader.commit_count()  # no page read, just the head probe
        stats = reader.cache_stats()
        assert stats["cached_pages"] == 0
        assert stats["pages_evicted"] > 0
        reader.close()
        engine.close()

    def test_a_delta_read_alone_evicts_dead_snapshot_pages(self, tiny_harness, tmp_path):
        """A replica that primes, then only delta-resyncs, never calls commit_count()."""
        path = str(tmp_path / "deltaonly.sqlite3")
        engine = make_engine(tiny_harness, store="sqlite", store_path=path)
        engine.ingest(tiny_harness.unmatched_offers)
        reader = CatalogReader(path, page_size=8)
        primed, _ = reader.read_products()
        before = reader.cache_stats()
        assert before["cached_pages"] > 0
        engine.ingest([tiny_harness.unmatched_offers[0]])
        head, delta = reader.read_delta(primed)
        assert head == primed + 1 and delta is not None
        stats = reader.cache_stats()
        assert stats["cached_pages"] == 0
        assert stats["pages_evicted"] == before["pages_evicted"] + before["cached_pages"]
        reader.close()
        engine.close()
