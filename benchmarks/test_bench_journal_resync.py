"""Journal-delta resync at 100k products (ISSUE 9).

Builds a 100,000-product catalog store directly through the store's
``apply`` (chunked commits), then measures a reader's full index build
against a journal-delta resync after a small commit touching ~100
clusters: the delta path applies O(changed) work and must be far
cheaper than the rebuild.  ``extra_info`` also records the primed
index's size: the bytes a ``CatalogIndex`` over the store's products
holds (tracemalloc, measured after the timed run, the decoded products
themselves excluded), per product.

The gating benchmark (``bench/``) reports the same two paths at its
2,000-offer stream size (``service.prime_ms``, ``service.resync_ms``,
``service.delta_resyncs``); this is the one measurement at a catalog
size where the difference between O(changed) and O(catalog) is seconds.
"""

import gc
import time
import tracemalloc

from conftest import run_once

from repro.model.products import Product
from repro.runtime.state import StagedBatch
from repro.runtime.store.sqlite import SqliteCatalogStore
from repro.serving import CatalogIndex, CatalogReader, CatalogSearchService

#: Catalog size, ingest chunking, and the size of the small commit the
#: delta resync applies.
CATALOG_PRODUCTS = 100_000
BUILD_CHUNK = 10_000
TOUCHED_CLUSTERS = 100
#: The delta resync must beat the full rebuild by at least this factor
#: (measured headroom is >100x; 20x keeps slow CI machines green).
DELTA_SPEEDUP_FLOOR = 20.0


def _make_title(index: int) -> str:
    return f"widget model {index} series {index % 97} gen {index % 13}"


def _cluster_id(index: int):
    return (f"cat.{index % 37:02d}", f"k{index}")


def _build_large_store(path: str) -> SqliteCatalogStore:
    """A 100k-product catalog, committed in chunks through ``apply``.

    The engine pipeline is bypassed on purpose: this measurement is
    about the *serving* side, and ``apply`` reaches the same commit
    barrier (and therefore the same journal) the engines do.
    """
    store = SqliteCatalogStore(path)
    for start in range(0, CATALOG_PRODUCTS, BUILD_CHUNK):
        batch = StagedBatch()
        for index in range(start, min(start + BUILD_CHUNK, CATALOG_PRODUCTS)):
            cluster_id = _cluster_id(index)
            batch.clusters.append(cluster_id)
            batch.products[cluster_id] = Product(
                product_id=f"p{index}",
                category_id=cluster_id[0],
                title=_make_title(index),
            )
        store.apply(batch)
        store.commit()
    return store


def _measure_resync(store_path: str, store: SqliteCatalogStore):
    """(full-build seconds, delta-resync seconds, resync stats, hits)."""
    started = time.perf_counter()
    service = CatalogSearchService.from_store_path(store_path)
    full_seconds = time.perf_counter() - started
    assert service.num_products == CATALOG_PRODUCTS
    try:
        store.apply(
            StagedBatch(
                products={
                    _cluster_id(index): Product(
                        product_id=f"p{index}",
                        category_id=_cluster_id(index)[0],
                        title=f"widget model {index} refreshed revision two",
                    )
                    for index in range(TOUCHED_CLUSTERS)
                }
            )
        )
        store.commit()
        started = time.perf_counter()
        service.resync()
        delta_seconds = time.perf_counter() - started
        stats = service.resync_stats()
        hits = service.search("refreshed widget", top_k=5)
        return full_seconds, delta_seconds, stats, hits
    finally:
        service.close()


def _index_bytes_per_product(store_path: str) -> float:
    """Traced bytes of an index built as the priming read builds it, per product."""
    with CatalogReader(store_path) as reader:
        _, products = reader.read_products()
    gc.collect()
    tracemalloc.start()
    try:
        index = CatalogIndex(products)
        index_bytes, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.num_products == CATALOG_PRODUCTS
    return index_bytes / CATALOG_PRODUCTS


def test_bench_journal_delta_resync_100k(benchmark, tmp_path):
    store_path = str(tmp_path / "bench-journal-100k.sqlite3")
    store = _build_large_store(store_path)
    try:
        full_seconds, delta_seconds, stats, hits = run_once(
            benchmark, _measure_resync, store_path, store
        )
    finally:
        store.close()
    index_bytes = _index_bytes_per_product(store_path)
    benchmark.extra_info["index_bytes_per_product"] = round(index_bytes, 1)

    speedup = full_seconds / max(delta_seconds, 1e-9)
    print()
    print(
        f"  full build {full_seconds:6.2f}s, "
        f"delta resync {delta_seconds * 1000:7.1f}ms "
        f"({speedup:,.0f}x) over {CATALOG_PRODUCTS:,} products; "
        f"index {index_bytes:,.0f} bytes per product"
    )
    # The acceptance criterion: the journal turned the resync into
    # O(changed) work — no full rebuild, no journal truncation.
    assert stats["delta_resyncs"] == 1
    assert stats["full_resyncs"] == 1  # the initial build only
    assert stats["journal_truncations"] == 0
    assert delta_seconds * DELTA_SPEEDUP_FLOOR < full_seconds, (
        f"delta resync ({delta_seconds:.3f}s) is not clearly "
        f"cheaper than the full rebuild ({full_seconds:.3f}s)"
    )
    # The applied delta is actually visible to queries.
    assert len(hits) == 5
