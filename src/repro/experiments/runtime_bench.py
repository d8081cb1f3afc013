"""Throughput benchmark: streaming engine vs. looped one-shot pipeline.

The scenario is the paper's production setting: offers arrive as a
continuous merchant-feed stream, and after every micro-batch the system
must have an up-to-date set of synthesized products.

* **Baseline** — the only way to do this with the one-shot
  :class:`~repro.synthesis.pipeline.ProductSynthesisPipeline` is to loop
  ``synthesize()`` over the accumulated stream after each batch,
  recomputing classification, reconciliation, clustering and fusion for
  every offer seen so far (O(total) work per batch, O(n·batches) overall).
* **Engine** — :class:`~repro.runtime.SynthesisEngine` ingests each batch
  incrementally (O(batch) work per batch), re-fusing only the clusters
  the batch touched, with sharded execution and memoised text statistics.

For a process-pool executor the engine run is measured twice: once with
the delta re-fusion protocol (workers keep shard-resident cluster state,
batches ship only new offers) and once with full-state shipping (every
touched cluster re-pickled per batch, the pre-delta behaviour), so the
payload cut is visible in the report (``offers_shipped_*``).

Both sides see identical pre-extracted offers and produce identical
products (asserted), so the comparison is purely about work avoided.
The engine side can run against the durable SQLite catalog store
(``store="sqlite"``), including resuming a previously interrupted run
(``resume=True``), which is what the CI durable-path smoke exercises.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.corpus.config import CorpusPreset
from repro.experiments.harness import ExperimentHarness
from repro.model.products import Product, product_fingerprint
from repro.obs import get_registry
from repro.runtime import MultiNodeEngine, MultiProcessEngine, SynthesisEngine
from repro.runtime.executors import ShardExecutor
from repro.synthesis.pipeline import ProductSynthesisPipeline
from repro.text.memo import clear_text_caches

__all__ = ["RuntimeBenchResult", "MultiNodeBenchResult", "run", "run_multinode"]


@dataclass
class RuntimeBenchResult:
    """Everything measured by one benchmark run."""

    num_offers: int
    num_batches: int
    executor: str
    num_shards: int
    seed: int
    #: Catalog store backend the engine ran against ("memory"/"sqlite").
    store: str
    #: Seconds for the looped pipeline to keep products current per batch.
    baseline_seconds: float
    #: Seconds for one monolithic ``synthesize()`` over the whole stream.
    single_pass_seconds: float
    #: Seconds for the engine to ingest the same stream batch by batch.
    engine_seconds: float
    #: Products synthesized (identical for engine and baseline).
    num_products: int
    #: Whether engine and baseline products are byte-identical.
    products_identical: bool
    category_vocabulary: Dict[str, int] = field(default_factory=dict)
    #: Engine time with delta re-fusion disabled (process executors only).
    full_ship_seconds: Optional[float] = None
    #: Offers shipped to workers with the delta protocol / full shipping.
    offers_shipped_delta: Optional[int] = None
    offers_shipped_full: Optional[int] = None
    #: Clusters process workers resynced from the durable store.
    worker_resyncs: int = 0
    #: Whether the engine resumed a previously persisted stream.
    resumed: bool = False
    #: ``MetricsRegistry.snapshot()`` taken right after the engine run
    #: (counters, gauges, histogram percentiles; see docs/observability.md).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Baseline seconds per engine second (higher is better)."""
        if self.engine_seconds == 0.0:
            return float("inf")
        return self.baseline_seconds / self.engine_seconds

    @property
    def engine_offers_per_second(self) -> float:
        """Ingest throughput of the engine over the whole stream."""
        if self.engine_seconds == 0.0:
            return float("inf")
        return self.num_offers / self.engine_seconds

    @property
    def delta_payload_ratio(self) -> Optional[float]:
        """Delta-shipped offers over full-shipped offers (lower is better)."""
        if not self.offers_shipped_full or self.offers_shipped_delta is None:
            return None
        return self.offers_shipped_delta / self.offers_shipped_full

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (written to ``BENCH_runtime.json``)."""
        payload: Dict[str, object] = {
            "num_offers": self.num_offers,
            "num_batches": self.num_batches,
            "executor": self.executor,
            "num_shards": self.num_shards,
            "seed": self.seed,
            "store": self.store,
            "baseline_seconds": round(self.baseline_seconds, 4),
            "single_pass_seconds": round(self.single_pass_seconds, 4),
            "engine_seconds": round(self.engine_seconds, 4),
            "speedup": round(self.speedup, 3),
            "engine_offers_per_second": round(self.engine_offers_per_second, 1),
            "num_products": self.num_products,
            "products_identical": self.products_identical,
            "num_categories": len(self.category_vocabulary),
            "worker_resyncs": self.worker_resyncs,
            "resumed": self.resumed,
        }
        if self.full_ship_seconds is not None:
            payload["full_ship_seconds"] = round(self.full_ship_seconds, 4)
        if self.offers_shipped_delta is not None:
            payload["offers_shipped_delta"] = self.offers_shipped_delta
        if self.offers_shipped_full is not None:
            payload["offers_shipped_full"] = self.offers_shipped_full
        ratio = self.delta_payload_ratio
        if ratio is not None:
            payload["delta_payload_ratio"] = round(ratio, 4)
        payload["metrics"] = self.metrics
        return payload

    def write_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        """Human-readable report."""
        lines = [
            "Runtime throughput benchmark (streaming engine vs looped pipeline)",
            f"  stream: {self.num_offers:,} offers in {self.num_batches} micro-batches "
            f"(seed {self.seed})",
            f"  engine: {self.num_shards} shards, {self.executor} executor, "
            f"{self.store} store" + (" (resumed)" if self.resumed else ""),
            f"  looped pipeline : {self.baseline_seconds:8.2f}s "
            f"(re-synthesizes the accumulated stream per batch)",
            f"  single pass     : {self.single_pass_seconds:8.2f}s "
            f"(one monolithic synthesize, no per-batch currency)",
            f"  engine          : {self.engine_seconds:8.2f}s "
            f"({self.engine_offers_per_second:,.0f} offers/s)",
            f"  speedup         : {self.speedup:8.2f}x",
            f"  products        : {self.num_products:,} "
            f"(identical: {self.products_identical})",
        ]
        if self.full_ship_seconds is not None:
            lines.append(
                f"  full shipping   : {self.full_ship_seconds:8.2f}s "
                f"(delta protocol disabled)"
            )
        ratio = self.delta_payload_ratio
        if ratio is not None:
            lines.append(
                f"  delta payloads  : {self.offers_shipped_delta:,} offers shipped "
                f"vs {self.offers_shipped_full:,} full-state "
                f"({100.0 * (1.0 - ratio):.0f}% cut)"
            )
        return "\n".join(lines)


def _product_fingerprint(products: List[Product]) -> List[Tuple[object, ...]]:
    return sorted(product_fingerprint(products))


def _batches(items: List, num_batches: int) -> List[List]:
    size = max(1, (len(items) + num_batches - 1) // num_batches)
    return [items[start : start + size] for start in range(0, len(items), size)]


def _remove_sqlite_files(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def run(
    num_offers: int = 10_000,
    num_batches: int = 10,
    executor: Union[str, ShardExecutor] = "process",
    num_shards: int = 8,
    seed: int = 2011,
    harness: Optional[ExperimentHarness] = None,
    store: str = "memory",
    store_path: Optional[str] = None,
    resume: bool = False,
) -> RuntimeBenchResult:
    """Run the throughput benchmark and return its measurements.

    Parameters
    ----------
    num_offers:
        Stream length; the synthetic corpus is scaled until it yields at
        least this many unmatched offers (then truncated to exactly it).
    num_batches:
        Micro-batches the stream is split into.
    executor, num_shards:
        Engine configuration.
    seed:
        Corpus seed.
    harness:
        Pre-built harness to reuse (tests); overrides ``num_offers``'s
        corpus scaling but still truncates the stream.
    store, store_path:
        Catalog store backend for the engine run; ``"sqlite"`` requires
        ``store_path`` and exercises the durable path (per-ingest
        commits, WAL mode).
    resume:
        Reopen an existing SQLite store instead of starting fresh: the
        engine restores the persisted state and deduplicates replayed
        offers, so an interrupted stream continues where it left off.
    """
    if store == "sqlite" and store_path is None:
        raise ValueError("store='sqlite' requires store_path")
    if resume and store != "sqlite":
        raise ValueError("resume=True requires store='sqlite'")
    # The artifact's metrics section should cover this run only, not
    # whatever an earlier bench in the same process accumulated.
    registry = get_registry()
    registry.clear()
    if harness is None:
        # SMALL yields ~1.3k unmatched offers at scale 1; overshoot a little
        # so the stream can be truncated to exactly num_offers.
        factor = max(1.0, num_offers / 1200.0)
        harness = ExperimentHarness(CorpusPreset.SMALL.config(seed=seed).scaled(factor))
    offers = harness.unmatched_offers[:num_offers]
    # The corpus generator emits a product's offers adjacently; real
    # streams are *merchant feeds*, so the same product's offers arrive
    # spread across batches.  A stable sort by merchant reproduces that
    # (each batch ≈ a few merchants' feeds) and is what makes clusters
    # grow across batches — the case the re-fusion protocols differ on.
    # Deterministic, and every measured side sees the identical stream.
    offers = sorted(offers, key=lambda offer: offer.merchant_id)
    batches = _batches(offers, num_batches)

    def build_pipeline() -> ProductSynthesisPipeline:
        """A fresh batch pipeline over the harness corpus."""
        return ProductSynthesisPipeline(
            catalog=harness.corpus.catalog,
            correspondences=harness.offline_result.correspondences,
            extractor=harness.extractor,
            category_classifier=harness.category_classifier,
        )

    def run_engine(
        engine_store: str,
        engine_store_path: Optional[str],
        delta_refusion: Optional[bool],
    ) -> Tuple[float, List[Product], SynthesisEngine]:
        """Time one engine configuration over the shared batch stream."""
        clear_text_caches()
        engine = SynthesisEngine(
            catalog=harness.corpus.catalog,
            correspondences=harness.offline_result.correspondences,
            extractor=harness.extractor,
            category_classifier=harness.category_classifier,
            num_shards=num_shards,
            executor=executor,
            store=engine_store,
            store_path=engine_store_path,
            delta_refusion=delta_refusion,
        )
        start = time.perf_counter()
        for batch in batches:
            engine.ingest(batch)
        products = engine.products()
        seconds = time.perf_counter() - start
        return seconds, products, engine

    # -- baseline: keep products current by re-running the one-shot pipeline
    clear_text_caches()
    pipeline = build_pipeline()
    baseline_products: List[Product] = []
    start = time.perf_counter()
    accumulated: List = []
    for batch in batches:
        accumulated.extend(batch)
        baseline_products = pipeline.synthesize(accumulated).products
    baseline_seconds = time.perf_counter() - start

    # -- reference: one monolithic pass (no per-batch product currency)
    clear_text_caches()
    pipeline = build_pipeline()
    start = time.perf_counter()
    single_pass_products = pipeline.synthesize(offers).products
    single_pass_seconds = time.perf_counter() - start

    # -- engine: incremental ingest of the same stream
    if store == "sqlite" and not resume:
        _remove_sqlite_files(store_path)  # type: ignore[arg-type]
    engine_seconds, engine_products, engine = run_engine(store, store_path, None)
    snapshot = engine.snapshot()
    transport = engine.transport_stats()
    # Taken before close() — close detaches the engine's transport
    # bridge, and the comparison run below must not leak in.
    metrics_snapshot = registry.snapshot()
    engine.close()

    # -- comparison: same engine with the delta protocol disabled
    # (full-state shipping), for executors that support delta at all.
    full_ship_seconds: Optional[float] = None
    offers_shipped_delta: Optional[int] = None
    offers_shipped_full: Optional[int] = None
    full_ship_products: Optional[List[Product]] = None
    if getattr(engine._executor, "supports_pinning", False):
        full_store_path = None if store_path is None else store_path + ".fullship"
        if full_store_path is not None:
            _remove_sqlite_files(full_store_path)
        full_ship_seconds, full_ship_products, full_engine = run_engine(
            store, full_store_path, False
        )
        offers_shipped_delta = transport.offers_shipped
        offers_shipped_full = full_engine.transport_stats().offers_shipped
        full_engine.close()
        if full_store_path is not None:
            _remove_sqlite_files(full_store_path)

    fingerprint = _product_fingerprint(engine_products)
    identical = fingerprint == _product_fingerprint(baseline_products) and (
        fingerprint == _product_fingerprint(single_pass_products)
    )
    if full_ship_products is not None:
        identical = identical and fingerprint == _product_fingerprint(full_ship_products)
    executor_name = executor if isinstance(executor, str) else executor.name
    return RuntimeBenchResult(
        num_offers=len(offers),
        num_batches=len(batches),
        executor=executor_name,
        num_shards=num_shards,
        seed=seed,
        store=store,
        baseline_seconds=baseline_seconds,
        single_pass_seconds=single_pass_seconds,
        engine_seconds=engine_seconds,
        num_products=len(engine_products),
        products_identical=identical,
        category_vocabulary=snapshot.category_vocabulary,
        full_ship_seconds=full_ship_seconds,
        offers_shipped_delta=offers_shipped_delta,
        offers_shipped_full=offers_shipped_full,
        worker_resyncs=transport.worker_resyncs,
        resumed=resume,
        metrics=metrics_snapshot,
    )


# -- multi-node scaling benchmark ----------------------------------------------


@dataclass
class MultiNodeRun:
    """One node count's measurements within the multi-node benchmark."""

    num_nodes: int
    engine_seconds: float
    #: Busiest node's ingest seconds — the critical path of the batch
    #: waves, i.e. the wall-clock a truly parallel deployment pays.
    max_node_seconds: float
    #: Sum of every node's ingest seconds (the total work performed).
    total_node_seconds: float
    #: Coordinator-side serial overhead: dedup + routing plus commit-
    #: barrier waits.  The serial fraction pipelining and hint routing
    #: attack; kept separate from ``max_node_seconds`` so routing cost
    #: is never mistaken for node work.
    coordinator_seconds: float = 0.0
    #: Offers whose routing hint pointed at the wrong node (hint mode).
    misrouted_offers: int = 0
    #: Offers routed by hint at all (the accuracy denominator).
    hinted_offers: int = 0
    #: 1 - misrouted/hinted, or None when hint routing never ran.
    hint_accuracy: Optional[float] = None
    #: Offers routed to each node, in node-id order.
    node_offers: List[int] = field(default_factory=list)
    products_identical: bool = False
    worker_resyncs: int = 0
    #: Single-engine wall seconds over this run's wall seconds (in
    #: ``mode="processes"`` the nodes genuinely run on separate cores,
    #: so this measures realised — not just available — scaling).
    wall_speedup: Optional[float] = None

    @property
    def scaling_bound(self) -> float:
        """Parallel speedup available over one node: total work divided
        by the critical path.  Near ``num_nodes`` when shards balance."""
        if self.max_node_seconds == 0.0:
            return float(self.num_nodes)
        return self.total_node_seconds / self.max_node_seconds

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible summary."""
        payload: Dict[str, object] = {
            "num_nodes": self.num_nodes,
            "engine_seconds": round(self.engine_seconds, 4),
            "max_node_seconds": round(self.max_node_seconds, 4),
            "total_node_seconds": round(self.total_node_seconds, 4),
            "coordinator_seconds": round(self.coordinator_seconds, 4),
            "misrouted_offers": self.misrouted_offers,
            "hinted_offers": self.hinted_offers,
            "hint_accuracy": (
                round(self.hint_accuracy, 4) if self.hint_accuracy is not None else None
            ),
            "scaling_bound": round(self.scaling_bound, 3),
            "node_offers": list(self.node_offers),
            "products_identical": self.products_identical,
            "worker_resyncs": self.worker_resyncs,
        }
        if self.wall_speedup is not None:
            payload["wall_speedup"] = round(self.wall_speedup, 3)
        return payload


@dataclass
class MultiNodeBenchResult:
    """Measurements of the ``runtime-bench --nodes/--processes`` paths."""

    num_offers: int
    num_batches: int
    executor: str
    num_shards: int
    seed: int
    store: str
    #: Seconds for one single (non-clustered) engine over the stream.
    single_engine_seconds: float
    #: ``"threads"`` (MultiNodeEngine, shared mirror under a lock) or
    #: ``"processes"`` (MultiProcessEngine, one OS process per node).
    mode: str = "threads"
    #: Cluster knobs the clusters ran with (see the engines' docs).
    pipeline_depth: int = 1
    hint_routing: bool = False
    #: ``os.cpu_count()`` of the measuring box — realised wall speedup
    #: is physically bounded by it, so readings travel with it.
    cpu_count: Optional[int] = None
    runs: List[MultiNodeRun] = field(default_factory=list)
    #: ``MetricsRegistry.snapshot()`` taken after the largest cluster's
    #: run (process mode merges the node processes' fragments in).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def products_identical(self) -> bool:
        """Whether every node count reproduced the single engine's catalog."""
        return all(run.products_identical for run in self.runs)

    def run_for(self, num_nodes: int) -> MultiNodeRun:
        """The measurements of one node count."""
        for entry in self.runs:
            if entry.num_nodes == num_nodes:
                return entry
        raise KeyError(f"no run with {num_nodes} nodes")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (``BENCH_runtime_cluster.json``)."""
        return {
            "num_offers": self.num_offers,
            "num_batches": self.num_batches,
            "executor": self.executor,
            "num_shards": self.num_shards,
            "seed": self.seed,
            "store": self.store,
            "mode": self.mode,
            "pipeline_depth": self.pipeline_depth,
            "hint_routing": self.hint_routing,
            "cpu_count": self.cpu_count,
            "single_engine_seconds": round(self.single_engine_seconds, 4),
            "products_identical": self.products_identical,
            "runs": [entry.to_dict() for entry in self.runs],
            "metrics": self.metrics,
        }

    def write_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        """Human-readable report."""
        flavour = "process" if self.mode == "processes" else "thread"
        lines = [
            f"Multi-node runtime benchmark ({flavour} nodes over a shared store)",
            f"  stream: {self.num_offers:,} offers in {self.num_batches} micro-batches "
            f"(seed {self.seed})",
            f"  cluster: {self.num_shards} shards, {self.executor} executor per node, "
            f"{self.store} store, {self.mode} mode",
            f"  single engine   : {self.single_engine_seconds:8.2f}s",
        ]
        if self.pipeline_depth != 1 or self.hint_routing:
            lines.append(
                f"  knobs: pipeline_depth={self.pipeline_depth}, "
                f"hint_routing={self.hint_routing}"
            )
        for entry in self.runs:
            wall = ""
            if entry.wall_speedup is not None:
                wall = f", wall {entry.engine_seconds:6.2f}s ({entry.wall_speedup:4.2f}x)"
            lines.append(
                f"  {entry.num_nodes} node(s)       : busiest {entry.max_node_seconds:6.2f}s "
                f"of {entry.total_node_seconds:6.2f}s total work, "
                f"coordinator {entry.coordinator_seconds:5.2f}s, "
                f"scaling bound {entry.scaling_bound:4.2f}x"
                f"{wall} "
                f"(identical: {entry.products_identical})"
            )
        return "\n".join(lines)


def run_multinode(
    num_offers: int = 10_000,
    num_batches: int = 10,
    executor: Union[str, ShardExecutor, None] = None,
    num_shards: int = 8,
    seed: int = 2011,
    harness: Optional[ExperimentHarness] = None,
    store: str = "memory",
    store_path: Optional[str] = None,
    node_counts: Sequence[int] = (1, 2, 4),
    mode: str = "threads",
    pipeline_depth: int = 1,
    hint_routing: bool = False,
) -> MultiNodeBenchResult:
    """Measure multi-node ingest scaling against a single engine.

    For every entry of ``node_counts`` a fresh cluster absorbs the same
    feed-ordered stream the single-engine benchmark uses.

    ``mode="threads"`` builds :class:`MultiNodeEngine` clusters (shared
    store mirror, per-node ``executor``); sub-batches are dispatched
    sequentially so each node's busy time is measured contention-free,
    and the *scaling bound* — total work over the critical path — is
    the machine-independent headline (wall-clock through one shared
    mirror measures core count, not partitioning quality).

    ``mode="processes"`` builds
    :class:`~repro.runtime.procnode.MultiProcessEngine` clusters: one
    OS process per node over a shared SQLite WAL file (``store_path``
    required; each node count runs against its own ``.procN`` file).
    ``executor`` then selects the engine executor *inside* each node —
    ``None`` defaults to ``"serial"`` there (and to ``"process"`` in
    threads mode); the engine's constructor rejects ``"process"``,
    daemonic node processes cannot spawn worker pools.  Here the
    per-run ``wall_speedup`` against the serial single engine *is*
    realised multi-core scaling — on a multi-core box it approaches the
    scaling bound; on fewer cores the bound still reports the
    parallelism available.

    After the first micro-batch each cluster rebalances by observed
    load: the deterministic modulo layout ignores category skew, and the
    coordinator's load-aware reassignment (with its epoch re-fencing and
    store resync) is precisely the mechanism a warm production cluster
    would use.  The rebalance cost is inside the measured region.

    ``pipeline_depth`` and ``hint_routing`` are handed to the clusters
    verbatim (both facades accept them): depth 2 overlaps each batch's
    commit barrier with the next batch's routing, and hint routing
    moves per-offer classification from the coordinator onto the nodes.
    Products are byte-identical under every combination (asserted per
    run); the per-run ``coordinator_seconds`` shows the serial overhead
    they remove.
    """
    if mode not in ("threads", "processes"):
        raise ValueError(f"mode must be 'threads' or 'processes', got {mode!r}")
    if mode == "processes" and store_path is None:
        raise ValueError("mode='processes' requires store_path (the shared WAL file)")
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

    # Process nodes are the parallelism themselves: their engines run
    # serial executors by default (and never process pools — daemonic
    # nodes cannot spawn workers); the single-engine reference uses the
    # same executor, the honest one-process baseline for realised
    # wall-clock scaling.
    if executor is None:
        executor = "serial" if mode == "processes" else "process"
    pipeline_kwargs = dict(
        catalog=harness.corpus.catalog,
        correspondences=harness.offline_result.correspondences,
        extractor=harness.extractor,
        category_classifier=harness.category_classifier,
    )
    engine_kwargs = dict(num_shards=num_shards, executor=executor, **pipeline_kwargs)

    clear_text_caches()
    single = SynthesisEngine(**engine_kwargs)
    start = time.perf_counter()
    for batch in batches:
        single.ingest(batch)
    reference_products = single.products()
    single_engine_seconds = time.perf_counter() - start
    single.close()
    reference = _product_fingerprint(reference_products)

    result = MultiNodeBenchResult(
        num_offers=len(offers),
        num_batches=len(batches),
        executor=executor if isinstance(executor, str) else executor.name,
        num_shards=num_shards,
        seed=seed,
        store="sqlite" if mode == "processes" else store,
        mode=mode,
        pipeline_depth=pipeline_depth,
        hint_routing=hint_routing,
        cpu_count=os.cpu_count(),
        single_engine_seconds=single_engine_seconds,
    )
    for num_nodes in node_counts:
        cluster_path = None
        if store_path is not None:
            suffix = f".proc{num_nodes}" if mode == "processes" else f".nodes{num_nodes}"
            cluster_path = f"{store_path}{suffix}"
            _remove_sqlite_files(cluster_path)
        clear_text_caches()
        if mode == "processes":
            cluster = MultiProcessEngine(
                num_nodes=num_nodes,
                num_shards=num_shards,
                node_executor=executor,
                store_path=cluster_path,
                pipeline_depth=pipeline_depth,
                hint_routing=hint_routing,
                **pipeline_kwargs,
            )
        else:
            cluster = MultiNodeEngine(
                num_nodes=num_nodes,
                store=store,
                store_path=cluster_path,
                pipeline_depth=pipeline_depth,
                hint_routing=hint_routing,
                **engine_kwargs,
            )
        start = time.perf_counter()
        for position, batch in enumerate(batches):
            cluster.ingest(batch)
            if position == 0 and num_nodes > 1:
                cluster.rebalance()
        products = cluster.products()
        engine_seconds = time.perf_counter() - start
        node_stats = cluster.node_stats()
        transport = cluster.transport_stats()
        coordinator_seconds = cluster.coordinator_seconds
        # Snapshot before close() — close detaches the cluster's metric
        # providers.  node_metrics() first pulls in what the nodes hold
        # outside this process's registry (a node process's engine
        # counters and spans; nothing for in-process nodes); the last
        # (largest) cluster's snapshot is the one the artifact keeps.
        cluster.node_metrics()
        result.metrics = registry.snapshot()
        cluster.close()
        if cluster_path is not None:
            _remove_sqlite_files(cluster_path)
        busy = [stats.busy_seconds for stats in node_stats]
        result.runs.append(
            MultiNodeRun(
                num_nodes=num_nodes,
                engine_seconds=engine_seconds,
                max_node_seconds=max(busy) if busy else 0.0,
                total_node_seconds=sum(busy),
                coordinator_seconds=coordinator_seconds,
                misrouted_offers=transport.misrouted_offers,
                hinted_offers=transport.hinted_offers,
                hint_accuracy=transport.hint_accuracy,
                node_offers=[stats.offers_routed for stats in node_stats],
                products_identical=_product_fingerprint(products) == reference,
                worker_resyncs=transport.worker_resyncs,
                # Realised scaling is only meaningful when the nodes
                # genuinely run concurrently (their own processes);
                # thread-mode dispatch here is sequential by design.
                wall_speedup=(
                    single_engine_seconds / engine_seconds
                    if mode == "processes" and engine_seconds > 0
                    else None
                ),
            )
        )
    return result
