"""Serving-layer benchmark: query throughput, latency, snapshot isolation.

Two phases over the same feed-ordered synthetic stream the runtime
benchmark uses:

* **Query throughput** — ingest the whole stream into an engine (the
  serving index maintained incrementally by the commit feed), then run a
  deterministic top-k search workload derived from the product titles
  and report queries/sec plus p50/p95 latency.
* **Mixed ingest + query** — on *both* store backends, interleave
  engine ingest batches with service queries and then *prove* snapshot
  isolation: every query's full result list (ids and scores) is
  re-executed against a reference index rebuilt from the exact product
  set of the committed prefix the service reported serving, and must
  match byte for byte.  The memory backend exercises the feed-driven
  maintenance path, the SQLite backend the read-only
  :class:`~repro.serving.reader.CatalogReader` resync path — a reader
  process querying concurrently with a live writer.

Writes ``BENCH_serving.json`` via ``--json`` (CLI: ``repro-synthesize
serving-bench``); the committed copy at the repo root is the regression
reference for ``benchmarks/test_bench_serving.py``.

A third, **closed-loop** mode (:func:`run_fleet`, CLI ``serving-bench
--clients N --duration S``) stresses the replicated serving fleet over
real HTTP: N client threads issue back-to-back searches against a
:class:`~repro.serving.fleet.ServingFleet` behind the worker-pool
server while a writer keeps committing ingest batches, and the same
workload is replayed against a fleet of one replica on an identical
copy of the store.  It reports aggregate QPS plus p50/p95/p99 latency
under mixed ingest and writes ``BENCH_serving_fleet.json`` (regression
reference for ``benchmarks/test_bench_serving_fleet.py``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness

# Shared with the runtime benchmark: identical batch rounding and sqlite
# sidecar cleanup, so the two benches can never drift apart on either.
from repro.experiments.runtime_bench import _batches, _remove_sqlite_files
from repro.model.products import Product
from repro.obs import get_registry, percentile
from repro.runtime import SynthesisEngine
from repro.serving.fleet import ServingFleet
from repro.serving.http import CatalogHTTPServer
from repro.serving.index import CatalogIndex
from repro.serving.service import CatalogSearchService
from repro.text.memo import clear_text_caches
from repro.text.tokenize import tokenize_title

__all__ = [
    "MixedRunResult",
    "ServingBenchResult",
    "FleetPhaseResult",
    "FleetBenchResult",
    "run",
    "run_fleet",
]


@dataclass
class MixedRunResult:
    """One backend's mixed ingest+query measurements and isolation proof."""

    store: str
    commits: int
    queries_run: int
    #: Distinct committed prefixes the queries were served against.
    distinct_snapshots: int
    #: Whether every query reproduced its committed prefix byte for byte.
    snapshot_stable: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        return {
            "store": self.store,
            "commits": self.commits,
            "queries_run": self.queries_run,
            "distinct_snapshots": self.distinct_snapshots,
            "snapshot_stable": self.snapshot_stable,
        }


@dataclass
class ServingBenchResult:
    """Everything the serving benchmark measured."""

    num_offers: int
    num_batches: int
    seed: int
    store: str
    num_products: int
    num_queries: int
    top_k: int
    #: Seconds to ingest the stream with the index maintained per commit.
    build_seconds: float
    #: Seconds spent executing the query workload.
    query_seconds: float
    queries_per_second: float
    p50_ms: float
    p95_ms: float
    #: Queries that returned at least one hit (sanity: workload is real).
    queries_with_hits: int
    index_vocabulary: int
    mixed: List[MixedRunResult] = field(default_factory=list)
    #: ``MetricsRegistry.snapshot()`` taken after the query phase, while
    #: the service still bridges its counters (see docs/observability.md).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def snapshot_isolation_proven(self) -> bool:
        """Whether every mixed-mode backend stayed byte-stable."""
        return bool(self.mixed) and all(run.snapshot_stable for run in self.mixed)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (written to ``BENCH_serving.json``)."""
        return {
            "num_offers": self.num_offers,
            "num_batches": self.num_batches,
            "seed": self.seed,
            "store": self.store,
            "num_products": self.num_products,
            "num_queries": self.num_queries,
            "top_k": self.top_k,
            "build_seconds": round(self.build_seconds, 4),
            "query_seconds": round(self.query_seconds, 4),
            "queries_per_second": round(self.queries_per_second, 1),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "queries_with_hits": self.queries_with_hits,
            "index_vocabulary": self.index_vocabulary,
            "snapshot_isolation_proven": self.snapshot_isolation_proven,
            "mixed": [entry.to_dict() for entry in self.mixed],
            "metrics": self.metrics,
        }

    def write_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        """Human-readable report."""
        lines = [
            "Serving benchmark (snapshot-isolated top-k search over the catalog)",
            f"  corpus: {self.num_offers:,} offers in {self.num_batches} batches "
            f"(seed {self.seed}) -> {self.num_products:,} products, "
            f"{self.index_vocabulary:,} index tokens",
            f"  build           : {self.build_seconds:8.2f}s "
            f"(ingest + incremental index maintenance, {self.store} store)",
            f"  queries         : {self.num_queries:,} top-{self.top_k} searches "
            f"({self.queries_with_hits:,} with hits)",
            f"  throughput      : {self.queries_per_second:8,.0f} queries/s",
            f"  latency         : p50 {self.p50_ms:.3f}ms, p95 {self.p95_ms:.3f}ms",
        ]
        for entry in self.mixed:
            verdict = "byte-stable" if entry.snapshot_stable else "TORN READS"
            lines.append(
                f"  mixed ({entry.store:6s}) : {entry.queries_run} queries across "
                f"{entry.commits} commits, {entry.distinct_snapshots} snapshots "
                f"observed -> {verdict}"
            )
        return "\n".join(lines)


def _query_workload(
    products: List[Product], num_queries: int, seed: int
) -> List[str]:
    """A deterministic search workload drawn from product titles.

    Each query is a 1-3 token span of some product title — what a user
    typing a partial product name sends — so the workload exercises the
    ranked path with real vocabulary instead of synthetic noise.
    """
    rng = random.Random(seed)
    # Pre-tokenise and keep only products that yield tokens at all, so
    # the sampling loop below always makes progress.
    tokenised = [
        tokens
        for tokens in (tokenize_title(product.title) for product in products)
        if tokens
    ]
    queries: List[str] = []
    while len(queries) < num_queries and tokenised:
        tokens = tokenised[rng.randrange(len(tokenised))]
        span = rng.randint(1, min(3, len(tokens)))
        start = rng.randrange(len(tokens) - span + 1)
        queries.append(" ".join(tokens[start : start + span]))
    return queries


def _result_fingerprint(results) -> Tuple[Tuple[str, float], ...]:
    """The byte-comparable form of one search's full result list."""
    return tuple((entry.product.product_id, entry.score) for entry in results)


def _engine(harness: ExperimentHarness, **kwargs) -> SynthesisEngine:
    return SynthesisEngine(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
        num_shards=kwargs.pop("num_shards", 8),
        **kwargs,
    )


def _mixed_run(
    harness: ExperimentHarness,
    batches: List[List],
    queries: List[str],
    top_k: int,
    store: str,
    store_path: Optional[str],
    queries_per_batch: int,
) -> MixedRunResult:
    """Interleave ingest and queries on one backend; verify isolation."""
    clear_text_caches()
    if store == "sqlite":
        _remove_sqlite_files(store_path)  # type: ignore[arg-type]
    engine = _engine(
        harness,
        executor="serial",
        store=store,
        store_path=store_path,
    )
    # Memory backend: feed-driven service (same process, commit feed).
    # SQLite backend: reader-driven service over the live WAL file — a
    # second connection querying concurrently with the writer.
    if store == "sqlite":
        service = CatalogSearchService.from_store_path(store_path)  # type: ignore[arg-type]
    else:
        service = CatalogSearchService.from_engine(engine)

    #: commit_count -> products of that committed prefix.
    prefix_products: Dict[int, List[Product]] = {}
    #: (query, snapshot served, full result fingerprint) per query run.
    observed: List[Tuple[str, int, Tuple]] = []
    query_cursor = 0
    for batch in batches:
        engine.ingest(batch)
        prefix_products[engine.store.commit_count] = engine.products()
        for _ in range(queries_per_batch):
            query = queries[query_cursor % len(queries)]
            query_cursor += 1
            results = service.search(query, top_k=top_k)
            observed.append(
                (query, service.snapshot_commit_count, _result_fingerprint(results))
            )
    commits = len(prefix_products)
    service.close()
    engine.close()
    if store == "sqlite":
        _remove_sqlite_files(store_path)  # type: ignore[arg-type]

    # The proof: rebuild a reference index per committed prefix actually
    # served and re-execute every query against it.  Identical ids AND
    # scores == the service answered from exactly that prefix, never
    # from a half-applied batch.
    stable = True
    snapshots = sorted({snapshot for _, snapshot, _ in observed})
    for snapshot in snapshots:
        if snapshot not in prefix_products:
            stable = False
            break
        reference = CatalogIndex(prefix_products[snapshot])
        for query, seen_snapshot, fingerprint in observed:
            if seen_snapshot != snapshot:
                continue
            expected = _result_fingerprint(reference.search(query, top_k=top_k))
            if expected != fingerprint:
                stable = False
    return MixedRunResult(
        store=store,
        commits=commits,
        queries_run=len(observed),
        distinct_snapshots=len(snapshots),
        snapshot_stable=stable,
    )


def run(
    num_offers: int = 10_000,
    num_batches: int = 10,
    num_queries: int = 5_000,
    top_k: int = 10,
    seed: int = 2011,
    store: str = "sqlite",
    store_path: Optional[str] = None,
    harness: Optional[ExperimentHarness] = None,
    mixed_queries_per_batch: int = 25,
) -> ServingBenchResult:
    """Run both serving-benchmark phases and return the measurements.

    Parameters mirror :func:`repro.experiments.runtime_bench.run` where
    they overlap; ``num_queries`` sizes the throughput workload, and
    ``mixed_queries_per_batch`` the per-commit query burst of the mixed
    phase (which always runs on both backends).
    """
    if store not in ("memory", "sqlite"):
        raise ValueError(f"store must be 'memory' or 'sqlite', got {store!r}")
    if store == "sqlite" and store_path is None:
        raise ValueError("store='sqlite' requires store_path")
    # The artifact's metrics section should cover this run only.
    registry = get_registry()
    registry.clear()
    if harness is None:
        factor = max(1.0, num_offers / 1200.0)
        harness = ExperimentHarness(CorpusPreset.SMALL.config(seed=seed).scaled(factor))
    offers = harness.unmatched_offers[:num_offers]
    offers = sorted(offers, key=lambda offer: offer.merchant_id)
    batches = _batches(offers, num_batches)

    # -- phase 1: build once, then hammer the index with searches
    clear_text_caches()
    if store == "sqlite":
        _remove_sqlite_files(store_path)  # type: ignore[arg-type]
    engine = _engine(harness, executor="serial", store=store, store_path=store_path)
    service = CatalogSearchService.from_engine(engine)
    build_start = time.perf_counter()
    for batch in batches:
        engine.ingest(batch)
    build_seconds = time.perf_counter() - build_start
    products = engine.products()
    queries = _query_workload(products, num_queries, seed)

    latencies: List[float] = []
    queries_with_hits = 0
    query_start = time.perf_counter()
    for query in queries:
        started = time.perf_counter()
        results = service.search(query, top_k=top_k)
        latencies.append(time.perf_counter() - started)
        if results:
            queries_with_hits += 1
    query_seconds = time.perf_counter() - query_start
    index_vocabulary = service.stats()["index"]["vocabulary_size"]  # type: ignore[index]
    # Taken before close() — close detaches the service's and engine's
    # metric bridges, and the mixed phase below must not leak in.
    metrics_snapshot = registry.snapshot()
    service.close()
    engine.close()
    if store == "sqlite":
        _remove_sqlite_files(store_path)  # type: ignore[arg-type]

    latencies.sort()
    result = ServingBenchResult(
        num_offers=len(offers),
        num_batches=len(batches),
        seed=seed,
        store=store,
        num_products=len(products),
        num_queries=len(queries),
        top_k=top_k,
        build_seconds=build_seconds,
        query_seconds=query_seconds,
        queries_per_second=(
            len(queries) / query_seconds if query_seconds > 0 else float("inf")
        ),
        p50_ms=percentile(latencies, 0.50) * 1000.0,
        p95_ms=percentile(latencies, 0.95) * 1000.0,
        queries_with_hits=queries_with_hits,
        index_vocabulary=int(index_vocabulary),
        metrics=metrics_snapshot,
    )

    # -- phase 2: mixed ingest+query isolation proof on both backends
    mixed_path = None if store_path is None else store_path + ".mixed"
    result.mixed.append(
        _mixed_run(harness, batches, queries, top_k, "memory", None, mixed_queries_per_batch)
    )
    if mixed_path is not None:
        result.mixed.append(
            _mixed_run(
                harness, batches, queries, top_k, "sqlite", mixed_path, mixed_queries_per_batch
            )
        )
    return result


# -- closed-loop fleet benchmark ----------------------------------------------


@dataclass
class FleetPhaseResult:
    """One closed-loop phase: N clients hammering one serving fleet."""

    #: ``"single"`` (a fleet of one replica) or ``"fleet"``.
    mode: str
    replicas: int
    #: HTTP worker-pool size.
    threads: int
    clients: int
    #: Wall seconds the measurement window actually lasted.
    duration_seconds: float
    requests: int
    errors: int
    #: TCP connections opened per completed request (1.0 without
    #: keep-alive; towards 0 on persistent connections).
    connects_per_request: float
    queries_per_second: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Ingest commits the writer completed during the window.
    commits_during_run: int
    #: Distinct pinned snapshots the responses reported serving.
    distinct_snapshots: int
    #: Largest per-replica commit lag sampled during the run.
    max_lag_observed: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        return {
            "mode": self.mode,
            "replicas": self.replicas,
            "threads": self.threads,
            "clients": self.clients,
            "duration_seconds": round(self.duration_seconds, 3),
            "requests": self.requests,
            "errors": self.errors,
            "connects_per_request": round(self.connects_per_request, 5),
            "queries_per_second": round(self.queries_per_second, 1),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "commits_during_run": self.commits_during_run,
            "distinct_snapshots": self.distinct_snapshots,
            "max_lag_observed": self.max_lag_observed,
        }


@dataclass
class FleetBenchResult:
    """Closed-loop fleet benchmark: single-replica baseline vs the fleet."""

    num_offers: int
    num_batches: int
    seed: int
    top_k: int
    clients: int
    replicas: int
    threads: int
    #: Cores of the machine that produced the numbers — the fleet only
    #: beats the baseline with real parallelism underneath, so the
    #: regression guard reads this before comparing phases.
    cpu_count: int
    num_products: int
    single: "FleetPhaseResult"
    fleet: "FleetPhaseResult"
    #: ``MetricsRegistry.snapshot()`` of the fleet measurement window
    #: (per-endpoint HTTP latency, per-replica lag, resync counters).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def fleet_speedup(self) -> float:
        """Aggregate fleet QPS over single-replica QPS."""
        if self.single.queries_per_second <= 0:
            return float("inf")
        return self.fleet.queries_per_second / self.single.queries_per_second

    def to_dict(self) -> Dict[str, object]:
        """JSON summary (written to ``BENCH_serving_fleet.json``)."""
        return {
            "num_offers": self.num_offers,
            "num_batches": self.num_batches,
            "seed": self.seed,
            "top_k": self.top_k,
            "clients": self.clients,
            "replicas": self.replicas,
            "threads": self.threads,
            "cpu_count": self.cpu_count,
            "num_products": self.num_products,
            "fleet_speedup": round(self.fleet_speedup, 3),
            "single": self.single.to_dict(),
            "fleet": self.fleet.to_dict(),
            "metrics": self.metrics,
        }

    def write_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        """Human-readable report."""
        lines = [
            "Serving fleet benchmark (closed-loop HTTP, mixed ingest+query)",
            f"  corpus: {self.num_offers:,} offers (seed {self.seed}) -> "
            f"{self.num_products:,} products; {self.clients} clients, "
            f"{self.threads} server workers, {self.cpu_count} cores",
        ]
        for phase in (self.single, self.fleet):
            lines.append(
                f"  {phase.mode:7s}: {phase.replicas} replica(s), "
                f"{phase.queries_per_second:8,.0f} q/s over "
                f"{phase.duration_seconds:.1f}s "
                f"(p50 {phase.p50_ms:.2f}ms p95 {phase.p95_ms:.2f}ms "
                f"p99 {phase.p99_ms:.2f}ms; {phase.commits_during_run} commits, "
                f"{phase.distinct_snapshots} snapshots, "
                f"max lag {phase.max_lag_observed}, {phase.errors} errors)"
            )
        lines.append(f"  fleet speedup   : {self.fleet_speedup:.2f}x aggregate QPS")
        return "\n".join(lines)


def _copy_store(source: str, destination: str) -> None:
    """Clone a closed store file (with WAL sidecars) for one phase."""
    _remove_sqlite_files(destination)
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(source + suffix):
            shutil.copyfile(source + suffix, destination + suffix)


def _closed_loop_phase(
    mode: str,
    store_path: str,
    harness: ExperimentHarness,
    live_batches: List[List],
    queries: List[str],
    top_k: int,
    clients: int,
    duration: float,
    replicas: int,
    threads: int,
    max_lag_commits: int,
) -> Tuple[FleetPhaseResult, Dict[str, object]]:
    """One measurement window: clients vs one serving fleet over HTTP.

    The fleet serves ``replicas`` lag-bounded replicas with a head
    watcher, so rebuilds stay off the request path; ``mode`` only
    labels the phase (``"single"`` is the run with one replica).  The
    writer engine ingests ``live_batches`` paced across the window, so
    every phase faces the same commit pressure on identical store copies.

    Returns the phase measurements plus the metrics-registry snapshot of
    the window (the registry is cleared on entry, so the snapshot covers
    exactly this phase: HTTP latency histograms, replica lag gauges,
    writer engine counters).
    """
    registry = get_registry()
    registry.clear()
    writer = _engine(harness, executor="serial", store="sqlite", store_path=store_path)
    fleet = ServingFleet.from_store_path(
        store_path,
        num_replicas=replicas,
        max_lag_commits=max_lag_commits,
        watch_head=True,
    )
    server = CatalogHTTPServer(("127.0.0.1", 0), fleet, max_workers=threads)
    host, port = server.server_address[:2]
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()

    stop = threading.Event()
    max_lag_observed = [0]

    def write_live_batches() -> None:
        interval = duration / (len(live_batches) + 1)
        for batch in live_batches:
            if stop.wait(interval):
                return
            writer.ingest(batch)
            lag = fleet.lag()["max_lag"]
            max_lag_observed[0] = max(max_lag_observed[0], int(lag))  # type: ignore[call-overload]

    per_client_latencies: List[List[float]] = [[] for _ in range(clients)]
    per_client_errors = [0] * clients
    per_client_snapshots: List[set] = [set() for _ in range(clients)]
    per_client_connects = [0] * clients
    deadline = time.perf_counter() + duration

    def client_loop(client_id: int) -> None:
        # One persistent connection per client, re-opened (and counted)
        # whenever the server closed it: the window measures the server,
        # not TCP set-up.
        cursor = client_id * 7919  # co-prime stride: clients diverge
        latencies = per_client_latencies[client_id]
        snapshots = per_client_snapshots[client_id]
        connection: Optional[http.client.HTTPConnection] = None
        while time.perf_counter() < deadline:
            query = urllib.parse.quote(queries[cursor % len(queries)])
            cursor += 1
            started = time.perf_counter()
            try:
                if connection is None:
                    connection = http.client.HTTPConnection(host, port, timeout=30)
                    connection.connect()
                    per_client_connects[client_id] += 1
                connection.request("GET", f"/search?q={query}&k={top_k}")
                response = connection.getresponse()
                payload = json.loads(response.read())
                if response.status != 200:
                    raise ValueError(f"status {response.status}")
                closed = response.will_close
            except (http.client.HTTPException, OSError, ValueError):
                per_client_errors[client_id] += 1
                closed = True
            else:
                latencies.append(time.perf_counter() - started)
                snapshots.add(payload["snapshot_commit_count"])
            if closed and connection is not None:
                connection.close()
                connection = None
        if connection is not None:
            connection.close()

    writer_thread = threading.Thread(target=write_live_batches, daemon=True)
    client_threads = [
        threading.Thread(target=client_loop, args=(client_id,), daemon=True)
        for client_id in range(clients)
    ]
    window_start = time.perf_counter()
    writer_thread.start()
    for thread in client_threads:
        thread.start()
    for thread in client_threads:
        thread.join()
    stop.set()
    writer_thread.join()
    window_seconds = time.perf_counter() - window_start

    # Snapshot while the fleet and writer still bridge their counters.
    metrics_snapshot = registry.snapshot()
    server.shutdown()
    server.server_close()
    fleet.close()
    writer.close()

    latencies = sorted(
        latency for bucket in per_client_latencies for latency in bucket
    )
    requests = len(latencies)
    phase = FleetPhaseResult(
        mode=mode,
        replicas=replicas,
        threads=threads,
        clients=clients,
        duration_seconds=window_seconds,
        requests=requests,
        errors=sum(per_client_errors),
        connects_per_request=sum(per_client_connects) / max(1, requests),
        queries_per_second=requests / window_seconds if window_seconds > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50) * 1000.0,
        p95_ms=percentile(latencies, 0.95) * 1000.0,
        p99_ms=percentile(latencies, 0.99) * 1000.0,
        commits_during_run=len(live_batches),
        distinct_snapshots=len(set().union(*per_client_snapshots)),
        max_lag_observed=max_lag_observed[0],
    )
    return phase, metrics_snapshot


def run_fleet(
    num_offers: int = 10_000,
    num_batches: int = 10,
    top_k: int = 10,
    seed: int = 2011,
    store_path: str = "BENCH_serving_catalog.sqlite3",
    clients: int = 4,
    duration: float = 5.0,
    replicas: int = 2,
    threads: Optional[int] = None,
    max_lag_commits: int = 2,
    harness: Optional[ExperimentHarness] = None,
) -> FleetBenchResult:
    """Closed-loop fleet stress: a fleet of one replica vs the fleet.

    Builds one catalog store from the first ~2/3 of the stream, then
    runs two measurement windows of ``duration`` seconds each on
    *copies* of that store — so both phases replay the identical mixed
    workload: ``clients`` HTTP client threads issuing back-to-back
    searches while a writer engine commits the remaining batches, paced
    across the window.  ``threads`` defaults to ``replicas * 2``
    (workers beyond the replica count only queue on replica locks).
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if threads is None:
        threads = max(clients, replicas * 2)
    if harness is None:
        factor = max(1.0, num_offers / 1200.0)
        harness = ExperimentHarness(CorpusPreset.SMALL.config(seed=seed).scaled(factor))
    offers = harness.unmatched_offers[:num_offers]
    offers = sorted(offers, key=lambda offer: offer.merchant_id)
    batches = _batches(offers, num_batches)
    # Most of the stream seeds the store; the tail is the live ingest
    # pressure both measurement windows replay.
    live_count = min(max(1, len(batches) // 3), len(batches) - 1) if len(batches) > 1 else 0
    build_batches = batches[: len(batches) - live_count]
    live_batches = batches[len(batches) - live_count :]

    clear_text_caches()
    _remove_sqlite_files(store_path)
    engine = _engine(harness, executor="serial", store="sqlite", store_path=store_path)
    for batch in build_batches:
        engine.ingest(batch)
    products = engine.products()
    engine.close()
    queries = _query_workload(products, max(256, clients * 64), seed)

    phases: Dict[str, FleetPhaseResult] = {}
    phase_metrics: Dict[str, Dict[str, object]] = {}
    for mode, phase_replicas in (("single", 1), ("fleet", replicas)):
        phase_path = f"{store_path}.{mode}"
        _copy_store(store_path, phase_path)
        try:
            phases[mode], phase_metrics[mode] = _closed_loop_phase(
                mode,
                phase_path,
                harness,
                live_batches,
                queries,
                top_k,
                clients,
                duration,
                phase_replicas,
                threads,
                max_lag_commits,
            )
        finally:
            _remove_sqlite_files(phase_path)
    _remove_sqlite_files(store_path)

    return FleetBenchResult(
        num_offers=len(offers),
        num_batches=len(batches),
        seed=seed,
        top_k=top_k,
        clients=clients,
        replicas=replicas,
        threads=threads,
        cpu_count=os.cpu_count() or 1,
        num_products=len(products),
        single=phases["single"],
        fleet=phases["fleet"],
        metrics=phase_metrics["fleet"],
    )
