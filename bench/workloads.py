"""The four workloads: what each prepares, measures, checks and reports.

Every workload reports the same end-to-end metrics (``BENCHMARK.json``
lists them; the driver wants every metric from every workload), read per
workload as follows:

``ops_per_s``
    fresh offers per second of the whole stream including the final
    ``products()`` (ingest workloads); completed requests per second at
    saturation (``serve_read``); live offers made searchable per second —
    a batch's size over its ``ingest`` time plus the wait for the first
    response served from its commit (``serve_mixed``, where the request
    rate is fixed by the schedule and so cannot move).
``latency_p50_ms``
    wall time of an ``ingest(batch)`` call (ingest workloads); client-side
    request latency from send (``serve_read``, closed loop) or from the
    time the request was due (``serve_mixed``, open loop).  The p90, p99
    and maximum are per-layer metrics (``op.latency_*_ms``).
``peak_rss_mb``
    ``VmHWM`` of the processes that do the measured work: the bench
    process (``ingest_stream``), plus the node processes
    (``ingest_cluster``); the ``runtime-serve`` child (serve workloads).
``attribute_precision`` / ``product_precision`` / ``attribute_recall``
    the paper's quality metrics, scored by ``EvaluationOracle`` on the
    products the runtime path produced (ingest) or serves (serve).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from bench.checks import check_passes, check_responses, reference_products
from bench.inputs import (
    NUM_SHARDS,
    Inputs,
    prepare_inputs,
    query_pool,
    request_plan,
    split_build_and_live,
)
from bench.ingest import (
    PassResult,
    cluster_pass,
    measure_passes,
    process_executor_pass,
    remove_store,
    serial_pass,
    summarise_passes,
    threads_pass,
)
from bench.ledger import POOL_SIZE
from bench.serving import (
    CLIENTS,
    COMMITS_PER_SECOND,
    OPEN_LOOP_RATE,
    ClientLog,
    CommitRecord,
    HttpClient,
    LiveWriter,
    ServerChild,
    closed_loop_window,
    first_visible,
    open_loop_window,
)
from bench.stats import median, peak_rss_mb, percentiles_ms
from bench.tracing import Tracer
from repro.model.offers import Offer
from repro.model.products import Product
from repro.runtime import SynthesisEngine
from repro.serving.reader import CatalogReader
from repro.text.memo import clear_text_caches

__all__ = ["WORKLOADS", "Outcome", "Prepared", "prepare", "measure"]

#: Share of the stream ``serve_mixed`` builds its store from.
BUILD_SHARE = 0.7
#: Seconds of discarded closed-loop traffic before a serve measurement.
WARMUP_SECONDS = 0.5
#: Requests planned per closed-loop client (cycled if a window outruns it).
PLAN_REQUESTS = 12000
#: Length of the time slices the serve workloads take medians across.
READ_SLICE_SECONDS = 0.5
MIXED_SLICE_SECONDS = 1.0


@dataclass
class Prepared:
    """What set-up left running for the measurement (and must tear down)."""

    workload: str
    inputs: Inputs
    out_dir: str
    store_path: str = ""
    #: Products and commit counter of the store as built.
    products: List[Product] = field(default_factory=list)
    build_commit_count: int = 0
    server: Optional[ServerChild] = None
    writer: Optional[LiveWriter] = None
    build_batches: List[List[Offer]] = field(default_factory=list)
    live_batches: List[List[Offer]] = field(default_factory=list)

    def close(self) -> None:
        """Stop the child processes and delete the scratch store."""
        if self.writer is not None:
            self.writer.stop()
            self.writer = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.store_path:
            remove_store(self.store_path)


@dataclass
class Outcome:
    """One workload measurement."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Why the outputs are wrong (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: Seconds per pass spent constructing engines: charged to set-up.
    open_s: float = 0.0
    #: Figures worth printing that are not gated metrics.
    notes: Dict[str, object] = field(default_factory=dict)


def _quality(inputs: Inputs, products: Sequence[Product]) -> Dict[str, float]:
    evaluation = inputs.harness.oracle.evaluate_products(products)
    return {
        "attribute_precision": evaluation.attribute_precision,
        "product_precision": evaluation.product_precision,
        "attribute_recall": evaluation.attribute_recall,
    }


def _timing_report(
    outcome: Outcome, summary: Dict[str, float], rss_mb: float, quality: Dict[str, float]
) -> None:
    """Fill the metrics every workload derives the same way from its summary."""
    outcome.end_to_end = {
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "peak_rss_mb": rss_mb,
        **quality,
    }
    # The tails do not repeat from run to run within any bound a gate
    # could use on this box: reported, not gated.
    outcome.per_layer = {
        "op.latency_p90_ms": summary["latency_p90_ms"],
        "op.latency_p99_ms": summary["latency_p99_ms"],
        "op.latency_max_ms": summary["latency_max_ms"],
    }
    if "trace_overhead_ratio" in summary:
        outcome.per_layer["trace.overhead_ratio"] = summary["trace_overhead_ratio"]


# -- set-up --------------------------------------------------------------------


def _live_batches(live: Sequence[Offer], seconds: float) -> List[List[Offer]]:
    """Cut the held-back offers into one batch per scheduled commit.

    The last commit lands half a second before the window closes, so its
    freshness can still be observed.
    """
    commits = max(1, int(seconds * COMMITS_PER_SECOND) - 2)
    size = max(1, -(-len(live) // commits))
    return [list(live[start : start + size]) for start in range(0, len(live), size)]


def prepare(workload: str, seed: int, seconds: float, out_dir: str, tracer: Tracer) -> Prepared:
    """Everything before the measurement: inputs, then the workload's own prep.

    Ingest workloads open their engines per pass (that time is reported
    back through :attr:`Outcome.open_s`); serve workloads build the
    store, start ``runtime-serve`` (which primes its index before it
    listens) and, for ``serve_mixed``, fork the live writer.
    """
    inputs = prepare_inputs(seed, tracer)
    prepared = Prepared(workload=workload, inputs=inputs, out_dir=out_dir)
    if workload not in ("serve_read", "serve_mixed"):
        return prepared

    prepared.store_path = os.path.join(out_dir, f"{workload}.sqlite3")
    prepared.build_batches = inputs.stream.batches
    server_args: List[str] = []
    live: List[Offer] = []
    if workload == "serve_mixed":
        prepared.build_batches, live = split_build_and_live(inputs.stream, BUILD_SHARE)
        prepared.live_batches = _live_batches(live, seconds)
        server_args = ["--replicas", "2", "--max-lag-commits", "2"]
    try:
        clear_text_caches()
        with tracer.span("setup.store_build"):
            built = serial_pass(
                inputs, prepared.build_batches, prepared.store_path, Tracer(), keep_store=True
            )
        if built.failed:
            raise RuntimeError(f"{workload}: {built.failed} build batches failed")
        prepared.products = built.products
        with CatalogReader(prepared.store_path) as reader:
            prepared.build_commit_count = reader.commit_count()
        prepared.server = ServerChild(
            prepared.store_path, os.path.join(out_dir, f"server-{workload}.log"), server_args
        )
        with tracer.span("setup.server_start"):
            prepared.server.start()
        if workload == "serve_mixed":
            with tracer.span("setup.writer_start"):
                prepared.writer = LiveWriter(inputs, prepared.store_path, prepared.live_batches)
    except BaseException:
        prepared.close()
        raise
    return prepared


# -- ingest workloads ----------------------------------------------------------


def _ingest_outcome(
    inputs: Inputs, passes: Sequence[PassResult], rss_mb: float
) -> Outcome:
    fresh = len(inputs.stream.fresh)
    plain = [result for result in passes if not result.traced] or list(passes)
    traced = [result for result in passes if result.traced]
    summary = summarise_passes(plain, fresh)
    if traced:
        summary["trace_overhead_ratio"] = (
            summarise_passes(traced, fresh)["ops_per_s"] / summary["ops_per_s"]
        )
    outcome = Outcome(
        attempted=len(passes) * len(inputs.stream.batches),
        failed=sum(result.failed for result in passes),
        problems=check_passes(passes, reference_products(inputs), inputs.stream.resent),
        open_s=median(result.open_s for result in passes),
        notes={
            "passes": len(passes),
            "batch_samples": sum(len(result.batch_seconds) for result in plain),
            "products": len(passes[-1].products),
        },
    )
    _timing_report(outcome, summary, rss_mb, _quality(inputs, passes[-1].products))
    return outcome


def _measure_ingest_stream(
    prepared: Prepared, seconds: float, tracer: Tracer, traced: bool
) -> Outcome:
    inputs = prepared.inputs
    batches = inputs.stream.batches
    path = os.path.join(prepared.out_dir, "ingest_stream.sqlite3")
    passes = measure_passes(
        lambda: serial_pass(inputs, batches, path, tracer), seconds, tracer, traced
    )
    outcome = _ingest_outcome(inputs, passes, peak_rss_mb(os.getpid()))
    if traced:
        # ROADMAP item 2 has to pick between process *executors* with
        # delta re-fusion and process *nodes*: one pass of the former,
        # set against the serial pass's full-state shipping.
        tracer.enabled = False
        clear_text_caches()
        pooled = process_executor_pass(inputs, batches, path + ".pool", tracer)
        tracer.enabled = True
        outcome.failed += pooled.failed
        outcome.attempted += len(batches)
        outcome.problems += check_passes(
            [pooled], reference_products(inputs), inputs.stream.resent
        )
        outcome.per_layer.update(
            {
                "executors.process_offers_per_s": len(inputs.stream.fresh) / pooled.wall_s,
                "delta.offers_shipped": pooled.extra["offers_shipped"],
                "delta.payload_ratio": pooled.extra["offers_shipped"]
                / passes[0].extra["refused_offers"],
                "delta.worker_resyncs": pooled.extra["worker_resyncs"],
            }
        )
    return outcome


def _measure_ingest_cluster(
    prepared: Prepared, seconds: float, tracer: Tracer, traced: bool
) -> Outcome:
    inputs = prepared.inputs
    batches = inputs.stream.batches
    fresh = len(inputs.stream.fresh)
    path = os.path.join(prepared.out_dir, "ingest_cluster.sqlite3")
    passes = measure_passes(
        lambda: cluster_pass(inputs, batches, path, tracer), seconds, tracer, traced
    )
    nodes_rss = median(result.extra.get("nodes_rss_mb", 0.0) for result in passes)
    outcome = _ingest_outcome(inputs, passes, peak_rss_mb(os.getpid()) + nodes_rss)
    if not traced:
        return outcome

    def middle(key: str) -> float:
        return median(result.extra[key] for result in passes if not result.failed)

    wall = median(result.wall_s for result in passes)
    tracer.enabled = False
    clear_text_caches()
    serial = serial_pass(inputs, batches, path + ".serial", tracer)
    clear_text_caches()
    one_node = cluster_pass(inputs, batches, path + ".one", tracer, num_nodes=1)
    clear_text_caches()
    threads = threads_pass(inputs, batches, tracer)
    tracer.enabled = True
    extras = [serial, one_node, threads]
    outcome.failed += sum(result.failed for result in extras)
    outcome.attempted += len(extras) * len(batches)
    outcome.problems += check_passes(extras, reference_products(inputs), inputs.stream.resent)
    outcome.per_layer.update(
        {
            # Shares of the pass's wall clock, so the rows of the
            # cluster's budget are comparable across stream sizes.
            "cluster.coordinator_share": middle("coordinator_s") / wall,
            "cluster.routing_share": middle("routing_s") / wall,
            "cluster.barrier_wait_share": middle("barrier_wait_s") / wall,
            "cluster.node_busy_max_share": middle("node_busy_max_s") / wall,
            "cluster.node_busy_total_share": middle("node_busy_total_s") / wall,
            "cluster.scaling_bound": middle("node_busy_total_s") / middle("node_busy_max_s"),
            "cluster.hint_accuracy": middle("hint_accuracy"),
            "cluster.misrouted_offers": middle("misrouted_offers"),
            "procnode.frames": middle("frames"),
            "procnode.frame_bytes": middle("frame_bytes"),
            "cluster.one_node_tax": one_node.wall_s / serial.wall_s,
            "cluster.threads_offers_per_s": fresh / threads.wall_s,
        }
    )
    return outcome


# -- serve workloads -----------------------------------------------------------


def _slice_stats(
    log: ClientLog, start_at: float, seconds: float, slice_s: float
) -> List[Dict[str, float]]:
    """Throughput and latency percentiles of each full time slice of a window.

    Requests are assigned to the slice they completed in.  Medians across
    slices are what the serve workloads report: a stall then costs the
    slices it hit, not the run.  Each slice also says whether spans were
    being recorded for most of its requests.
    """
    count = max(1, int(seconds / slice_s))
    latencies: List[List[float]] = [[] for _ in range(count)]
    traced = [0] * count
    for ended, latency, _, flag in log.completed:
        position = int((ended - start_at) / slice_s)
        if 0 <= position < count:
            latencies[position].append(latency)
            traced[position] += flag
    slices = []
    for position, sample in enumerate(latencies):
        if not sample:
            continue
        p50, p90 = percentiles_ms(sample, (0.50, 0.90))
        slices.append(
            {
                "ops_per_s": len(sample) / slice_s,
                "latency_p50_ms": p50,
                "latency_p90_ms": p90,
                "traced": float(traced[position] * 2 > len(sample)),
            }
        )
    return slices


def _alternate_tracing(
    tracer: Tracer,
    start_at: float,
    seconds: float,
    slice_s: float,
    each_tick: Optional[Callable[[], None]] = None,
) -> Callable[[], None]:
    """A monitor for a traced window: record spans in every other slice.

    Both throughputs the tracing overhead is computed from then come
    from the same server in the same window.
    """

    def monitor() -> None:
        while time.monotonic() < start_at + seconds:
            elapsed = max(0.0, time.monotonic() - start_at)
            tracer.enabled = int(elapsed / slice_s) % 2 == 1
            if each_tick is not None:
                each_tick()
            time.sleep(slice_s / 10)

    return monitor


def _serve_summary(
    log: ClientLog, slices: Sequence[Dict[str, float]]
) -> Dict[str, float]:
    """Medians across the untraced slices, tails over the whole window."""
    plain = [entry for entry in slices if not entry["traced"]] or list(slices)
    spanned = [entry for entry in slices if entry["traced"]]
    p99, top = percentiles_ms(log.latencies, (0.99, 1.0))
    summary = {
        name: median(entry[name] for entry in plain)
        for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")
    }
    summary["latency_p99_ms"] = p99
    summary["latency_max_ms"] = top
    if spanned:
        # Untraced over traced latency: in a closed loop that is traced
        # over untraced throughput, and it still moves in an open loop,
        # where the send rate is fixed.
        traced_p50 = median(entry["latency_p50_ms"] for entry in spanned)
        summary["trace_overhead_ratio"] = summary["latency_p50_ms"] / traced_p50
    return summary


def _measure_serve_read(
    prepared: Prepared, seconds: float, tracer: Tracer, traced: bool
) -> Outcome:
    inputs, server = prepared.inputs, prepared.server
    assert server is not None
    pool = query_pool(prepared.products, size=POOL_SIZE)
    plans = [
        request_plan(pool, prepared.products, PLAN_REQUESTS, inputs.seed, f"client{i}", zipf=True)
        for i in range(CLIENTS)
    ]
    tracer.enabled = False
    warm = closed_loop_window(server.port, plans, WARMUP_SECONDS, tracer)

    start_at = time.monotonic()
    monitor = (
        _alternate_tracing(tracer, start_at, seconds, READ_SLICE_SECONDS) if traced else None
    )
    log = closed_loop_window(
        server.port, plans, seconds, tracer, offset=warm.attempted // CLIENTS, monitor=monitor
    )
    tracer.enabled = traced
    slices = _slice_stats(log, start_at, seconds, READ_SLICE_SECONDS)
    summary = _serve_summary(log, slices)

    outcome = Outcome(
        attempted=log.attempted,
        failed=log.failed,
        problems=check_responses(
            log.samples,
            lambda snapshot: (
                prepared.products if snapshot == prepared.build_commit_count else None
            ),
        ),
        notes={
            "slices": len(slices),
            "requests": log.attempted,
            "responses_checked": len(log.samples),
            "connects_per_request": log.connects / max(1, log.attempted),
            "products": len(prepared.products),
            "query_pool": len(pool),
        },
    )
    _timing_report(
        outcome, summary, server.peak_rss_mb(), _quality(inputs, prepared.products)
    )
    return outcome


def _replay_reference(
    prepared: Prepared,
    records: Sequence[CommitRecord],
    base_commit_count: int,
    final_commit_count: int,
) -> Dict[int, List[Product]]:
    """Products of every committed prefix the fleet could have served.

    An independent memory-store engine in this process ingests the build
    batches and then the live batches the writer committed, one by one;
    products depend only on the set of offers ingested, so its listing
    after live batch *k* is what commit *k* must serve.  The writer's
    closing (empty) commit serves the final catalog.
    """
    clear_text_caches()
    engine = SynthesisEngine(
        num_shards=NUM_SHARDS, executor="serial", **prepared.inputs.engine_kwargs()
    )
    try:
        for batch in prepared.build_batches:
            engine.ingest(batch)
        by_commit = {base_commit_count: engine.products()}
        for record in records:
            if record.ok:
                engine.ingest(prepared.live_batches[record.batch])
                by_commit[record.commit_count] = engine.products()
        by_commit[final_commit_count] = engine.products()
    finally:
        engine.close()
    return by_commit


def _measure_serve_mixed(
    prepared: Prepared, seconds: float, tracer: Tracer, traced: bool
) -> Outcome:
    inputs, server, writer = prepared.inputs, prepared.server, prepared.writer
    assert server is not None and writer is not None
    pool = query_pool(prepared.products)
    per_client = int(seconds * OPEN_LOOP_RATE) // CLIENTS + 1
    plans = [
        request_plan(pool, prepared.products, per_client, inputs.seed, f"client{i}", zipf=False)
        for i in range(CLIENTS)
    ]
    tracer.enabled = False
    closed_loop_window(server.port, plans, WARMUP_SECONDS, tracer)

    interval = 1.0 / COMMITS_PER_SECOND
    start_at = time.monotonic() + 0.2
    writer.schedule(start_at, interval)
    max_lag = [0]
    probe = HttpClient(server.port, Tracer())

    def poll_lag() -> None:
        status, body = probe.get("/lag")
        if status == 200:
            max_lag[0] = max(max_lag[0], int(json.loads(body)["max_lag"]))

    monitor = (
        _alternate_tracing(tracer, start_at, seconds, MIXED_SLICE_SECONDS, poll_lag)
        if traced
        else None
    )
    log = open_loop_window(
        server.port, plans, start_at, seconds, OPEN_LOOP_RATE, tracer, monitor
    )
    probe.close()
    tracer.enabled = traced
    records, final_commit_count = writer.finish()
    prepared.writer = None

    # Per live commit: how long until a reader could find its offers —
    # the writer's ``ingest`` plus the wait for the first response served
    # from that commit or a later one.
    freshness: List[float] = []
    searchable_rates: List[float] = []
    invisible = 0
    for record in records:
        seen_at = first_visible(log, record.commit_count) if record.ok else None
        if seen_at is None:
            invisible += 1
            continue
        fresh = max(0.0, seen_at - record.done_at)
        freshness.append(fresh)
        offers = len(prepared.live_batches[record.batch])
        searchable_rates.append(offers / (record.seconds + fresh))
    by_commit = _replay_reference(
        prepared, records, writer.base_commit_count, final_commit_count
    )
    stats = _serve_summary(log, _slice_stats(log, start_at, seconds, MIXED_SLICE_SECONDS))
    # The request rate is fixed by the schedule, so the throughput that
    # can move here is the write side's: live offers made searchable per
    # second (0 when no commit ever became visible; ``failed`` says so).
    stats["ops_per_s"] = median(searchable_rates)
    commit_p50_s = median(record.seconds for record in records)
    freshness_p50_s = median(freshness)
    late_p50, late_max = percentiles_ms(log.lateness, (0.50, 1.0))
    snapshots = {snapshot for _, _, snapshot, _ in log.completed}

    outcome = Outcome(
        attempted=log.attempted + len(records),
        # A commit no response ever reflected is a failed operation, like
        # a raised ingest.
        failed=log.failed + invisible,
        problems=check_responses(log.samples, by_commit.get),
        notes={
            "requests": log.attempted,
            "responses_checked": len(log.samples),
            "commits": len(records),
            "freshness_p50_ms": freshness_p50_s * 1000.0,
            "commit_p50_ms": commit_p50_s * 1000.0,
            "generator_late_p50_ms": late_p50,
            "generator_late_max_ms": late_max,
            "snapshots_seen": len(snapshots),
            "query_pool": len(pool),
        },
    )
    _timing_report(
        outcome, stats, server.peak_rss_mb(), _quality(inputs, by_commit[max(by_commit)])
    )
    outcome.per_layer.update(
        {
            # In units of the commit interval: how many commits go by
            # before one is visible (the fleet's lag bound is stated in
            # commits too).
            "fleet.freshness_p50_commits": freshness_p50_s / interval,
            "fleet.max_lag_seen": float(max_lag[0]),
            "fleet.snapshots_seen": float(len(snapshots)),
            "writer.commit_busy_share": commit_p50_s / interval,
            "loadgen.late_share": sum(1 for late in log.lateness if late > 0.001)
            / max(1, len(log.lateness)),
        }
    )
    return outcome


#: name -> measurement (why each exists is in BENCHMARK.json and the README).
WORKLOADS: Dict[str, Callable[[Prepared, float, Tracer, bool], Outcome]] = {
    "ingest_stream": _measure_ingest_stream,
    "ingest_cluster": _measure_ingest_cluster,
    "serve_read": _measure_serve_read,
    "serve_mixed": _measure_serve_mixed,
}


def measure(prepared: Prepared, seconds: float, tracer: Tracer, traced: bool) -> Outcome:
    """Run the prepared workload's measurement and output checks."""
    return WORKLOADS[prepared.workload](prepared, seconds, tracer, traced)

