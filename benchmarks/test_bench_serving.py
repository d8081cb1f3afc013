"""Benchmark for the snapshot-isolated serving layer (ISSUE 5).

Runs :mod:`repro.experiments.serving_bench` on the 10k-offer stream and
asserts the subsystem's acceptance criteria:

* top-k search sustains >= 1,000 queries/sec with p50/p95 latency
  recorded (the committed ``BENCH_serving.json`` is the artifact);
* the mixed ingest+query phase proves snapshot isolation — every
  query's full ranked result is byte-identical to the same query
  against its committed stream prefix — on BOTH store backends
  (feed-driven over memory, reader-driven over the live SQLite WAL);
* throughput does not regress by more than 20% against the committed
  ``BENCH_serving.json`` (same guard pattern as ``BENCH_runtime.json``).

Writes ``BENCH_serving.json`` next to the repo root, or into
``$BENCH_OUTPUT_DIR`` when set — CI uploads it as an artifact.

A second measurement, **journal-delta resync at 100k products** (ISSUE
9), builds a 100,000-product catalog store directly through the store
mutators (chunked commits), then measures a reader's full index build
against a journal-delta resync after a small commit touching ~100
clusters: the delta path applies O(changed) work and must be far
cheaper than the rebuild.
"""

import json
import os
import time

from conftest import run_once

from repro.corpus.config import CorpusPreset
from repro.experiments import serving_bench
from repro.experiments.harness import ExperimentHarness
from repro.model.products import Product
from repro.runtime.store.sqlite import SqliteCatalogStore
from repro.serving import CatalogSearchService

#: Stream and workload sizes of the headline run (acceptance criterion).
STREAM_OFFERS = 10_000
STREAM_BATCHES = 10
NUM_QUERIES = 5_000
TOP_K = 10

#: The regression guard fails when query throughput drops below this
#: fraction of the committed run.  Wall-clock is machine-dependent: the
#: committed JSON is the reference for the hardware it was produced on,
#: so after a hardware change regenerate it rather than chasing a
#: phantom regression.
THROUGHPUT_GUARD = 0.8

#: The journal-resync measurement: catalog size, ingest chunking, and
#: the size of the small commit the delta resync applies.
CATALOG_PRODUCTS = 100_000
BUILD_CHUNK = 10_000
TOUCHED_CLUSTERS = 100
#: The delta resync must beat the full rebuild by at least this factor
#: (measured headroom is >100x; 20x keeps slow CI machines green).
DELTA_SPEEDUP_FLOOR = 20.0


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _output_path() -> str:
    out_dir = os.environ.get("BENCH_OUTPUT_DIR")
    if out_dir is None:
        out_dir = _repo_root()
    return os.path.join(out_dir, "BENCH_serving.json")


def _committed_result() -> dict:
    """The committed benchmark JSON (read before this run overwrites it)."""
    committed_path = os.path.join(_repo_root(), "BENCH_serving.json")
    if not os.path.exists(committed_path):
        return {}
    with open(committed_path, encoding="utf-8") as handle:
        return json.load(handle)


def test_bench_serving_throughput_and_isolation(benchmark, tmp_path):
    committed = _committed_result()
    harness = ExperimentHarness(
        CorpusPreset.SMALL.config(seed=2011).scaled(STREAM_OFFERS / 1200.0)
    )
    # Materialise setup artefacts outside the measured region.
    _ = harness.unmatched_offers
    _ = harness.offline_result
    _ = harness.category_classifier

    result = run_once(
        benchmark,
        serving_bench.run,
        num_offers=STREAM_OFFERS,
        num_batches=STREAM_BATCHES,
        num_queries=NUM_QUERIES,
        top_k=TOP_K,
        harness=harness,
        store="sqlite",
        store_path=str(tmp_path / "bench-serving.sqlite3"),
    )
    result.write_json(_output_path())
    print()
    print(result.to_text())

    assert result.num_offers == STREAM_OFFERS
    assert result.num_products > 1_000
    assert result.num_queries == NUM_QUERIES
    # Workload sanity: queries come from real titles, so most must hit.
    assert result.queries_with_hits >= 0.9 * result.num_queries
    # The ISSUE 5 acceptance criterion: >= 1k ranked searches per second
    # over the 10k-offer catalog, with latency percentiles recorded.
    assert result.queries_per_second >= 1_000, (
        f"serving throughput {result.queries_per_second:.0f} queries/s "
        "is below the 1,000 q/s acceptance bar"
    )
    assert result.p50_ms > 0.0
    assert result.p95_ms >= result.p50_ms
    # Snapshot isolation proven on both backends, byte for byte.
    assert [entry.store for entry in result.mixed] == ["memory", "sqlite"]
    for entry in result.mixed:
        assert entry.snapshot_stable, f"torn reads on the {entry.store} backend"
        assert entry.distinct_snapshots >= 1
        assert entry.commits == STREAM_BATCHES
    assert result.snapshot_isolation_proven
    # Regression guard: compare against the committed BENCH_serving.json.
    committed_throughput = committed.get("queries_per_second")
    if committed_throughput:
        assert result.queries_per_second >= THROUGHPUT_GUARD * committed_throughput, (
            f"serving throughput regressed more than 20%: "
            f"{result.queries_per_second:.1f} queries/s now vs "
            f"{committed_throughput:.1f} committed"
        )


def _make_title(index: int) -> str:
    return f"widget model {index} series {index % 97} gen {index % 13}"


def _cluster_id(index: int):
    return (f"cat.{index % 37:02d}", f"k{index}")


def _build_large_store(path: str) -> SqliteCatalogStore:
    """A 100k-product catalog, committed in chunks through the mutators.

    The engine pipeline is bypassed on purpose: this measurement is
    about the *serving* side, and the store mutators reach the same
    commit barrier (and therefore the same journal) the engines do.
    """
    store = SqliteCatalogStore(path)
    for start in range(0, CATALOG_PRODUCTS, BUILD_CHUNK):
        for index in range(start, min(start + BUILD_CHUNK, CATALOG_PRODUCTS)):
            cluster_id = _cluster_id(index)
            store.create_cluster(index % 64, cluster_id)
            store.set_product(
                cluster_id,
                Product(
                    product_id=f"p{index}",
                    category_id=cluster_id[0],
                    title=_make_title(index),
                ),
            )
        store.commit()
    return store


def _measure_resync(store_path: str, store: SqliteCatalogStore):
    """(full-build seconds, delta-resync seconds, resync stats, hits)."""
    started = time.perf_counter()
    service = CatalogSearchService.from_store_path(store_path)
    full_seconds = time.perf_counter() - started
    assert service.num_products == CATALOG_PRODUCTS
    try:
        for index in range(TOUCHED_CLUSTERS):
            store.set_product(
                _cluster_id(index),
                Product(
                    product_id=f"p{index}",
                    category_id=_cluster_id(index)[0],
                    title=f"widget model {index} refreshed revision two",
                ),
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


def test_bench_journal_delta_resync_100k(benchmark, tmp_path):
    store_path = str(tmp_path / "bench-journal-100k.sqlite3")
    store = _build_large_store(store_path)
    try:
        full_seconds, delta_seconds, stats, hits = run_once(
            benchmark, _measure_resync, store_path, store
        )
    finally:
        store.close()

    speedup = full_seconds / max(delta_seconds, 1e-9)
    print()
    print(
        f"  full build {full_seconds:6.2f}s, "
        f"delta resync {delta_seconds * 1000:7.1f}ms "
        f"({speedup:,.0f}x) over {CATALOG_PRODUCTS:,} products"
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
