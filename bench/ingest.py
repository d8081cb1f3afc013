"""The write path: engine flavours, the timed pass, the two ingest workloads.

Both ingest workloads deliver the same stream through the same synthesis
code.  ``ingest_stream`` calls it directly (one serial engine over a
SQLite store); ``ingest_cluster`` reaches it through routing, pipe
frames, the commit barrier and multi-writer SQLite (two process nodes).
A synthesis change therefore moves both; a transport or coordinator
change moves only the second.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from bench.inputs import NUM_SHARDS, Inputs
from bench.stats import median, peak_rss_mb, percentiles_ms
from bench.tracing import Tracer
from repro.model.offers import Offer
from repro.model.products import Product
from repro.runtime import MultiNodeEngine, MultiProcessEngine, SqliteCatalogStore, SynthesisEngine
from repro.synthesis.clustering import KeyAttributeClusterer
from repro.synthesis.fusion import CentroidValueFusion
from repro.text.memo import clear_text_caches

__all__ = [
    "NUM_NODES",
    "PassResult",
    "remove_store",
    "serial_pass",
    "cluster_pass",
    "threads_pass",
    "process_executor_pass",
    "measure_passes",
    "summarise_passes",
]

#: Process nodes of ``ingest_cluster`` (= cores of the sizing box).
NUM_NODES = 2
#: Fewest measured passes of an ingest workload, whatever ``--seconds`` says.
MIN_PASSES = 3


@dataclass
class PassResult:
    """One delivery of the whole stream to one engine on fresh state."""

    #: Wall seconds of every ``ingest`` plus the final ``products()``.
    wall_s: float
    #: Wall seconds of each successful ``ingest(batch)`` call.
    batch_seconds: List[float]
    products: List[Product]
    #: ``ingest`` calls that raised (counted as failed operations).
    failed: int = 0
    offers_new: int = 0
    offers_duplicate: int = 0
    clusters_touched: int = 0
    products_refreshed: int = 0
    #: Whether the benchmark's spans were being recorded during the pass.
    traced: bool = False
    #: Seconds spent constructing the engine (store open, node spawn):
    #: outside the pass's wall time, charged to set-up instead.
    open_s: float = 0.0
    #: Accessor readings taken before the engine was closed.
    extra: Dict[str, float] = field(default_factory=dict)


def remove_store(path: str) -> None:
    """Delete a SQLite store file and its WAL sidecars (if present)."""
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def _deliver(
    engine: object,
    batches: Sequence[Sequence[Offer]],
    tracer: Tracer,
    after_first: Optional[Callable[[], None]] = None,
    after_each: Optional[Callable[[int], None]] = None,
) -> PassResult:
    """Ingest every batch, then read the products; time each call."""
    result = PassResult(wall_s=0.0, batch_seconds=[], products=[], traced=tracer.enabled)
    outside = 0.0
    started = time.perf_counter()
    for position, batch in enumerate(batches):
        call_started = time.perf_counter()
        try:
            with tracer.span("engine.ingest", op=position):
                report = engine.ingest(batch)  # type: ignore[attr-defined]
        except Exception:  # noqa: BLE001 - a raised ingest is a counted failure
            traceback.print_exc(file=sys.stderr)
            result.failed += 1
            continue
        result.batch_seconds.append(time.perf_counter() - call_started)
        result.offers_new += report.offers_new
        result.offers_duplicate += report.offers_duplicate
        result.clusters_touched += report.clusters_touched
        result.products_refreshed += report.products_refreshed
        if position == 0 and after_first is not None:
            after_first()
        if after_each is not None:
            # Reader-follow probes of the traced ledger are not the
            # engine's work: keep them out of the pass's wall time.
            probe_started = time.perf_counter()
            after_each(position)
            outside += time.perf_counter() - probe_started
    with tracer.span("engine.products"):
        result.products = engine.products()  # type: ignore[attr-defined]
    result.wall_s = time.perf_counter() - started - outside
    return result


def serial_pass(
    inputs: Inputs,
    batches: Sequence[Sequence[Offer]],
    path: str,
    tracer: Tracer,
    after_each: Optional[Callable[[int], None]] = None,
    keep_store: bool = False,
) -> PassResult:
    """One serial ``SynthesisEngine`` over a fresh SQLite store at ``path``.

    The components the engine takes through its constructor are built
    here so the tracer can shadow their public entry points; with the
    tracer disabled the wrappers are pass-throughs on the same objects,
    so traced and untraced passes run the same code.
    """
    remove_store(path)
    opening = time.perf_counter()
    kwargs = inputs.engine_kwargs()
    classifier = kwargs["category_classifier"]
    clusterer = KeyAttributeClusterer(kwargs["catalog"])
    fusion = CentroidValueFusion()
    store = SqliteCatalogStore(path)
    tracer.wrap(classifier, "assign_categories", "synthesis.classify")
    tracer.wrap(clusterer, "cluster_key", "synthesis.cluster_key")
    tracer.wrap(fusion, "select", "synthesis.fuse_select")
    tracer.wrap(store, "commit", "store.commit")
    tracer.wrap(store, "append_offers", "store.append_offers")
    tracer.wrap(store, "set_product", "store.set_product")
    engine = SynthesisEngine(
        num_shards=NUM_SHARDS,
        executor="serial",
        clusterer=clusterer,
        fusion=fusion,
        store=store,
        **kwargs,
    )
    open_s = time.perf_counter() - opening
    try:
        result = _deliver(engine, batches, tracer, after_each=after_each)
        result.open_s = open_s
        result.extra["refused_offers"] = float(engine.transport_stats().offers_shipped)
        result.extra["commit_count"] = float(store.commit_count)
    finally:
        engine.close()
        store.close()
        tracer.unwrap_all()
    result.extra["disk_bytes"] = float(
        sum(
            os.path.getsize(path + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(path + suffix)
        )
    )
    if not keep_store:
        remove_store(path)
    return result


def cluster_pass(
    inputs: Inputs,
    batches: Sequence[Sequence[Offer]],
    path: str,
    tracer: Tracer,
    num_nodes: int = NUM_NODES,
) -> PassResult:
    """One ``MultiProcessEngine`` pass over a fresh shared WAL file.

    Node processes are measured through the cluster's public accessors
    only; the benchmark's wrappers stay in this process.
    """
    remove_store(path)
    opening = time.perf_counter()
    cluster = MultiProcessEngine(
        num_nodes=num_nodes,
        num_shards=NUM_SHARDS,
        store_path=path,
        pipeline_depth=2,
        hint_routing=True,
        **inputs.engine_kwargs(),
    )
    open_s = time.perf_counter() - opening
    try:
        # The modulo layout ignores category skew; one load-aware
        # rebalance after the first batch is what a warm cluster runs
        # with, and its cost is inside the measured pass.
        rebalance = cluster.rebalance if num_nodes > 1 else None
        result = _deliver(cluster, batches, tracer, after_first=rebalance)
        result.open_s = open_s
        busy = [stats.busy_seconds for stats in cluster.node_stats()]
        transport = cluster.transport_stats()
        result.extra = {
            "coordinator_s": cluster.coordinator_seconds,
            "routing_s": cluster.routing_seconds,
            "barrier_wait_s": cluster.barrier_wait_seconds,
            "node_busy_max_s": max(busy),
            "node_busy_total_s": sum(busy),
            "hint_accuracy": transport.hint_accuracy or 0.0,
            "misrouted_offers": float(transport.misrouted_offers),
            "frames": float(transport.frames_sent + transport.frames_received),
            "frame_bytes": float(transport.frame_bytes_sent + transport.frame_bytes_received),
            "nodes_rss_mb": sum(
                peak_rss_mb(child.pid) for child in multiprocessing.active_children()
            ),
        }
    finally:
        cluster.close()
    remove_store(path)
    return result


def threads_pass(inputs: Inputs, batches: Sequence[Sequence[Offer]], tracer: Tracer) -> PassResult:
    """The ``MultiNodeEngine`` twin: same knobs, thread nodes, memory store."""
    cluster = MultiNodeEngine(
        num_nodes=NUM_NODES,
        num_shards=NUM_SHARDS,
        pipeline_depth=2,
        hint_routing=True,
        **inputs.engine_kwargs(),
    )
    try:
        return _deliver(cluster, batches, tracer, after_first=cluster.rebalance)
    finally:
        cluster.close()


def process_executor_pass(
    inputs: Inputs, batches: Sequence[Sequence[Offer]], path: str, tracer: Tracer
) -> PassResult:
    """One engine with shard-pinned process workers and delta re-fusion."""
    remove_store(path)
    engine = SynthesisEngine(
        num_shards=NUM_SHARDS,
        executor="process",
        max_workers=NUM_NODES,
        store="sqlite",
        store_path=path,
        **inputs.engine_kwargs(),
    )
    try:
        result = _deliver(engine, batches, tracer)
        transport = engine.transport_stats()
        result.extra = {
            "offers_shipped": float(transport.offers_shipped),
            "worker_resyncs": float(transport.worker_resyncs),
        }
    finally:
        engine.close()
    remove_store(path)
    return result


def measure_passes(
    run_pass: Callable[[], PassResult], seconds: float, tracer: Tracer, traced: bool
) -> List[PassResult]:
    """Repeat ``run_pass`` on fresh state for ``seconds`` (at least 3 times).

    Every pass starts from cold text caches.  In a traced run passes
    alternate untraced/traced, so the two throughputs the tracing
    overhead is computed from come from the same run.
    """
    fewest = MIN_PASSES + 1 if traced else MIN_PASSES
    deadline = time.perf_counter() + seconds
    results: List[PassResult] = []
    while len(results) < fewest or time.perf_counter() < deadline:
        tracer.enabled = traced and len(results) % 2 == 1
        clear_text_caches()
        results.append(run_pass())
    tracer.enabled = traced
    return results


def summarise_passes(passes: Sequence[PassResult], fresh_offers: int) -> Dict[str, float]:
    """Median-across-passes throughput and per-batch latency percentiles.

    Every pass delivers the same batches, so each batch position's
    latency is first reduced to its median across passes (which removes
    one-off stalls) and the percentiles are then taken across the
    stream's batches: ``latency_p90_ms`` is the cost of the stream's
    heavy batches, not of the machine's bad moments.
    """
    complete = [result for result in passes if not result.failed] or list(passes)
    positions = min(len(result.batch_seconds) for result in complete)
    typical = [
        median(result.batch_seconds[position] for result in complete)
        for position in range(positions)
    ]
    p50, p90, p99, top = percentiles_ms(typical, (0.50, 0.90, 0.99, 1.0))
    return {
        "ops_per_s": median(fresh_offers / result.wall_s for result in passes),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "latency_p99_ms": p99,
        "latency_max_ms": max(
            max(result.batch_seconds, default=0.0) for result in passes
        ) * 1000.0,
    }
