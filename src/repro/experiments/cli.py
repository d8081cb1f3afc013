"""Command-line entry point: run the paper's experiments and print their tables.

Installed as ``repro-synthesize``; also runnable as
``python -m repro.experiments.cli``.

Examples
--------
Run every experiment on the small preset::

    repro-synthesize --preset small

Run only Table 2 and Figure 8 on the default (larger) preset::

    repro-synthesize --preset default --experiments table2 figure8

Run the streaming-runtime throughput benchmark (see
:mod:`repro.experiments.runtime_bench`) and write ``BENCH_runtime.json``::

    repro-synthesize runtime-bench --offers 10000 --executor process \
        --json BENCH_runtime.json

Exercise the durable catalog store, then resume the same stream::

    repro-synthesize runtime-bench --store sqlite --store-path catalog.sqlite3
    repro-synthesize runtime-bench --store sqlite --store-path catalog.sqlite3 --resume

Measure multi-node ingest scaling (clusters of 1, 2 and 4 engine nodes
over one shared store, see :mod:`repro.runtime.cluster`)::

    repro-synthesize runtime-bench --nodes 4 --store sqlite \
        --store-path catalog.sqlite3 --json BENCH_runtime_cluster.json

Measure true multi-*process* scaling (one OS process per node over a
shared WAL file, see :mod:`repro.runtime.procnode`)::

    repro-synthesize runtime-bench --processes 4 \
        --store-path catalog.sqlite3 --json BENCH_runtime_cluster.json

Benchmark the serving layer (top-k search throughput and the mixed
ingest+query snapshot-isolation proof, see
:mod:`repro.experiments.serving_bench`)::

    repro-synthesize serving-bench --offers 10000 --json BENCH_serving.json

Stress the replicated serving fleet with concurrent closed-loop HTTP
clients under mixed ingest (see :func:`repro.experiments.serving_bench.run_fleet`)::

    repro-synthesize serving-bench --clients 4 --duration 5 --replicas 2 \
        --json BENCH_serving_fleet.json

Serve a catalog store over HTTP (read-only; queries run concurrently
with whatever engine or cluster is writing the file), optionally as a
fleet of several replicas (``/health`` and ``/lag`` report each one)::

    repro-synthesize runtime-serve --store-path catalog.sqlite3 --port 8080
    repro-synthesize runtime-serve --store-path catalog.sqlite3 --replicas 2

Pretty-print the metrics snapshot of a running server, or the
``metrics`` section embedded in a bench artifact::

    repro-synthesize runtime-obs --url http://127.0.0.1:8080
    repro-synthesize runtime-obs --artifact BENCH_runtime.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from repro.corpus.config import CorpusPreset
from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    runtime_bench,
    serving_bench,
    table2,
    table3,
    table4,
)
from repro.experiments.harness import ExperimentHarness
from repro.runtime.procnode import validate_node_executor

__all__ = ["main", "EXPERIMENTS"]

#: Experiment name -> runner taking the shared harness.
EXPERIMENTS: Dict[str, Callable[[ExperimentHarness], object]] = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize",
        description="Reproduce the evaluation of 'Synthesizing Products for Online Catalogs'",
        epilog=(
            "additional commands: 'repro-synthesize runtime-bench --help' "
            "(streaming-engine throughput benchmark), 'serving-bench --help' "
            "(query-side benchmark), 'runtime-serve --help' (HTTP serving), "
            "'runtime-obs --help' (metrics snapshot viewer)"
        ),
    )
    parser.add_argument(
        "--preset",
        choices=[preset.value for preset in CorpusPreset],
        default=CorpusPreset.SMALL.value,
        help="corpus size preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=2011, help="corpus RNG seed")
    parser.add_argument(
        "--experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        default=sorted(EXPERIMENTS),
        help="experiments to run (default: all)",
    )
    return parser.parse_args(argv)


def _validate_store_path(
    parser: argparse.ArgumentParser,
    path: str,
    must_exist: bool = False,
) -> str:
    """A clear argparse error for unusable store paths.

    SQLite reports a bad path only when the first statement runs, as an
    opaque ``OperationalError`` deep inside the store layer; checking
    up front turns a typo'd directory or a path pointing at a directory
    into a one-line CLI error instead of a traceback.
    """
    resolved = os.path.abspath(path)
    if os.path.isdir(resolved):
        parser.error(f"store path {path!r} is a directory, expected a file path")
    parent = os.path.dirname(resolved)
    if not os.path.isdir(parent):
        parser.error(f"store path {path!r} is in a directory that does not exist")
    if must_exist and not os.path.exists(resolved):
        parser.error(f"store file {path!r} does not exist")
    return path


def _parse_runtime_bench_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize runtime-bench",
        description="Throughput benchmark: streaming SynthesisEngine vs looped pipeline",
    )
    parser.add_argument(
        "--offers", type=int, default=10_000, help="stream length (default: 10000)"
    )
    parser.add_argument(
        "--batches", type=int, default=10, help="micro-batches (default: 10)"
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="engine shard executor (default: process; with --processes "
        "it is the executor INSIDE each node process, default serial — "
        "'process' is invalid there, daemonic nodes cannot spawn pools)",
    )
    parser.add_argument(
        "--shards", type=int, default=8, help="category shards (default: 8)"
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=1,
        metavar="N",
        help="run the multi-node scaling benchmark with clusters of "
        "1..N engine nodes over a shared store (default: 1 = the "
        "single-engine throughput benchmark)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="run the multi-PROCESS scaling benchmark with clusters of "
        "1..N node processes over a shared SQLite WAL store "
        "(forces --store sqlite; mutually exclusive with --nodes)",
    )
    parser.add_argument("--seed", type=int, default=2011, help="corpus RNG seed")
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        choices=[1, 2],
        default=1,
        metavar="D",
        help="cluster commit pipelining (with --nodes/--processes): 2 "
        "overlaps each batch's commit barrier with the next batch's "
        "routing; 1 (default) commits synchronously",
    )
    parser.add_argument(
        "--hint-routing",
        action="store_true",
        help="route cluster batches on cheap category hints and run the "
        "real classifier on the nodes in parallel (with --nodes/"
        "--processes); products stay byte-identical",
    )
    parser.add_argument(
        "--store",
        choices=["memory", "sqlite"],
        default=None,
        help="engine catalog store backend (default: memory; --processes "
        "implies sqlite and rejects an explicit --store memory)",
    )
    parser.add_argument(
        "--store-path",
        metavar="PATH",
        default=None,
        help="SQLite store file (default: BENCH_catalog.sqlite3 with --store sqlite)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reopen an existing SQLite store and continue the stream "
        "instead of starting fresh (requires --store sqlite)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result as JSON (e.g. BENCH_runtime.json)",
    )
    args = parser.parse_args(argv)
    if args.nodes < 1:
        parser.error("--nodes must be >= 1")
    if args.processes < 1:
        parser.error("--processes must be >= 1")
    if args.nodes > 1 and args.processes > 1:
        parser.error("--nodes and --processes are mutually exclusive")
    if args.resume and (args.nodes > 1 or args.processes > 1):
        parser.error("--resume is a single-engine path; drop --nodes/--processes")
    if (args.pipeline_depth != 1 or args.hint_routing) and (
        args.nodes == 1 and args.processes == 1
    ):
        parser.error(
            "--pipeline-depth/--hint-routing are cluster knobs; "
            "combine them with --nodes or --processes"
        )
    if args.processes > 1:
        if args.store == "memory":
            parser.error(
                "--processes shares state through the SQLite WAL file; "
                "--store memory cannot back a multi-process cluster"
            )
        try:
            validate_node_executor(args.executor)
        except ValueError as error:
            parser.error(f"--executor {args.executor}: {error}")
        # Process nodes share state through the WAL file only.
        args.store = "sqlite"
    if args.store is None:
        args.store = "memory"
    if args.resume and args.store != "sqlite":
        parser.error("--resume requires --store sqlite")
    if args.store_path is not None and args.store != "sqlite":
        parser.error("--store-path requires --store sqlite (or --processes)")
    if args.executor is None:
        args.executor = "serial" if args.processes > 1 else "process"
    if args.store == "sqlite" and args.store_path is None:
        args.store_path = "BENCH_catalog.sqlite3"
    if args.store_path is not None:
        _validate_store_path(parser, args.store_path, must_exist=args.resume)
    return args


def _multinode_counts(max_nodes: int) -> "list[int]":
    """1, then doubling up to ``max_nodes`` (e.g. 4 -> [1, 2, 4])."""
    counts = [1]
    while counts[-1] * 2 < max_nodes:
        counts.append(counts[-1] * 2)
    if counts[-1] != max_nodes:
        counts.append(max_nodes)
    return counts


def _run_runtime_bench(argv: Sequence[str]) -> int:
    """Dispatch the ``runtime-bench`` subcommand (all of its modes)."""
    args = _parse_runtime_bench_args(argv)
    if args.nodes > 1 or args.processes > 1:
        mode = "processes" if args.processes > 1 else "threads"
        max_nodes = args.processes if mode == "processes" else args.nodes
        result = runtime_bench.run_multinode(
            num_offers=args.offers,
            num_batches=args.batches,
            executor=args.executor,
            num_shards=args.shards,
            seed=args.seed,
            store=args.store,
            store_path=args.store_path,
            node_counts=_multinode_counts(max_nodes),
            mode=mode,
            pipeline_depth=args.pipeline_depth,
            hint_routing=args.hint_routing,
        )
        print(result.to_text())
        if args.json:
            result.write_json(args.json)
            print(f"[wrote {args.json}]")
        return 0 if result.products_identical else 1
    result = runtime_bench.run(
        num_offers=args.offers,
        num_batches=args.batches,
        executor=args.executor,
        num_shards=args.shards,
        seed=args.seed,
        store=args.store,
        store_path=args.store_path,
        resume=args.resume,
    )
    print(result.to_text())
    if args.json:
        result.write_json(args.json)
        print(f"[wrote {args.json}]")
    return 0 if result.products_identical else 1


def _parse_serving_bench_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize serving-bench",
        description="Serving-layer benchmark: top-k search throughput, latency "
        "percentiles, and the mixed ingest+query snapshot-isolation proof",
    )
    parser.add_argument(
        "--offers", type=int, default=10_000, help="stream length (default: 10000)"
    )
    parser.add_argument(
        "--batches", type=int, default=10, help="micro-batches (default: 10)"
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=5_000,
        help="searches in the throughput phase (default: 5000)",
    )
    parser.add_argument(
        "--top-k", type=int, default=10, help="results per search (default: 10)"
    )
    parser.add_argument("--seed", type=int, default=2011, help="corpus RNG seed")
    parser.add_argument(
        "--store",
        choices=["memory", "sqlite"],
        default="sqlite",
        help="store backend of the throughput phase (default: sqlite; the "
        "mixed phase always runs both backends)",
    )
    parser.add_argument(
        "--store-path",
        metavar="PATH",
        default=None,
        help="SQLite store file (default: BENCH_serving_catalog.sqlite3)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=0,
        metavar="N",
        help="run the CLOSED-LOOP fleet benchmark instead: N concurrent "
        "HTTP client threads stress a replica fleet (and a single-replica "
        "baseline) under mixed ingest (default: 0 = the classic benchmark)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds per closed-loop measurement window (with --clients; "
        "default: 5)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        metavar="N",
        help="fleet size of the closed-loop benchmark (with --clients; "
        "default: 2)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="HTTP worker-pool size of the closed-loop benchmark (with "
        "--clients; default: max(clients, 2*replicas))",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result as JSON (e.g. BENCH_serving.json, "
        "or BENCH_serving_fleet.json with --clients)",
    )
    args = parser.parse_args(argv)
    if args.offers < 1:
        parser.error("--offers must be >= 1")
    if args.queries < 1:
        parser.error("--queries must be >= 1")
    if args.top_k < 1:
        parser.error("--top-k must be >= 1")
    if args.clients < 0:
        parser.error("--clients must be >= 0")
    if args.clients:
        if args.duration <= 0:
            parser.error("--duration must be > 0")
        if args.replicas < 1:
            parser.error("--replicas must be >= 1")
        if args.threads is not None and args.threads < 1:
            parser.error("--threads must be >= 1")
        if args.store == "memory":
            parser.error(
                "the closed-loop fleet benchmark shares the store file "
                "between writer and replicas; --store memory cannot back it"
            )
    if args.store_path is not None and args.store != "sqlite":
        parser.error("--store-path requires --store sqlite")
    if args.store == "sqlite" and args.store_path is None:
        args.store_path = "BENCH_serving_catalog.sqlite3"
    if args.store_path is not None:
        _validate_store_path(parser, args.store_path)
    return args


def _run_serving_bench(argv: Sequence[str]) -> int:
    """Dispatch the ``serving-bench`` subcommand (classic or closed-loop)."""
    args = _parse_serving_bench_args(argv)
    if args.clients:
        fleet_result = serving_bench.run_fleet(
            num_offers=args.offers,
            num_batches=args.batches,
            top_k=args.top_k,
            seed=args.seed,
            store_path=args.store_path,
            clients=args.clients,
            duration=args.duration,
            replicas=args.replicas,
            threads=args.threads,
        )
        print(fleet_result.to_text())
        if args.json:
            fleet_result.write_json(args.json)
            print(f"[wrote {args.json}]")
        errors = fleet_result.single.errors + fleet_result.fleet.errors
        return 0 if errors == 0 else 1
    result = serving_bench.run(
        num_offers=args.offers,
        num_batches=args.batches,
        num_queries=args.queries,
        top_k=args.top_k,
        seed=args.seed,
        store=args.store,
        store_path=args.store_path,
    )
    print(result.to_text())
    if args.json:
        result.write_json(args.json)
        print(f"[wrote {args.json}]")
    return 0 if result.snapshot_isolation_proven else 1


def _parse_runtime_serve_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize runtime-serve",
        description="Serve a catalog store file over HTTP (read-only JSON "
        "endpoints: /search, /product/<id>, /stats); safe to run against "
        "a file a live engine or cluster is still writing",
    )
    parser.add_argument(
        "--store-path",
        metavar="PATH",
        required=True,
        help="SQLite catalog store file to serve (must exist)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--page-size",
        type=int,
        default=256,
        help="products per disk page of the reader (default: 256)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="serve N snapshot-pinned replicas of the index behind one "
        "load-balancing front (default: 1)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="bounded HTTP worker pool size (default: 2*replicas)",
    )
    parser.add_argument(
        "--max-lag-commits",
        type=int,
        default=2,
        metavar="N",
        help="divergence bound: a replica may trail the store head, as "
        "the fleet's head watcher last read it (every few milliseconds, "
        "resyncing lagging replicas at once), by up to N commits before a request "
        "resyncs it inline; 0 makes every request read the last commit "
        "from the store file (default: 2)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.port <= 65_535:
        parser.error(f"--port must be in [0, 65535], got {args.port}")
    if args.page_size < 1:
        parser.error("--page-size must be >= 1")
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.max_lag_commits < 0:
        parser.error("--max-lag-commits must be >= 0")
    if args.threads is None:
        args.threads = 2 * args.replicas
    _validate_store_path(parser, args.store_path, must_exist=True)
    return args


def _run_runtime_serve(argv: Sequence[str]) -> int:
    """Dispatch the ``runtime-serve`` subcommand (blocks until ^C)."""
    # Imported here: the experiments CLI must not drag the HTTP serving
    # stack in for the tables/figures paths.
    from repro.serving.fleet import ServingFleet
    from repro.serving.http import serve

    args = _parse_runtime_serve_args(argv)
    fleet = ServingFleet.from_store_path(
        args.store_path,
        num_replicas=args.replicas,
        page_size=args.page_size,
        max_lag_commits=args.max_lag_commits,
        watch_head=True,
    )
    print(
        f"runtime-serve: {args.replicas} replica(s) over {args.store_path} "
        f"(snapshot {fleet.lag()['head_commit_count']}, "
        f"lag bound {args.max_lag_commits})"
    )
    serve(fleet, host=args.host, port=args.port, max_workers=args.threads)
    return 0


def _parse_runtime_obs_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize runtime-obs",
        description="Pretty-print a metrics snapshot: counters, gauges, and "
        "histogram latency percentiles from a running runtime-serve "
        "(its /metrics.json endpoint) or from the 'metrics' section "
        "embedded in a bench JSON artifact",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--url",
        metavar="URL",
        help="base URL of a running runtime-serve (e.g. http://127.0.0.1:8080)",
    )
    source.add_argument(
        "--artifact",
        metavar="PATH",
        help="bench JSON artifact with an embedded metrics section "
        "(e.g. BENCH_runtime.json)",
    )
    args = parser.parse_args(argv)
    if args.url is not None and not args.url.startswith(("http://", "https://")):
        parser.error(f"--url must start with http:// or https://, got {args.url!r}")
    return args


def _run_runtime_obs(argv: Sequence[str]) -> int:
    """Dispatch the ``runtime-obs`` subcommand (snapshot pretty-printer)."""
    # Imported here: the tables/figures paths must not drag the obs
    # rendering helpers in.
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs import format_snapshot

    args = _parse_runtime_obs_args(argv)
    if args.url is not None:
        url = args.url.rstrip("/") + "/metrics.json"
        try:
            with urlopen(url, timeout=10) as response:
                snapshot = json.load(response)
        except (URLError, OSError, ValueError) as exc:
            print(f"runtime-obs: cannot fetch {url}: {exc}")
            return 2
        print(f"metrics snapshot from {url}")
    else:
        try:
            with open(args.artifact, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"runtime-obs: cannot read {args.artifact!r}: {exc}")
            return 2
        snapshot = artifact.get("metrics") if isinstance(artifact, dict) else None
        if not isinstance(snapshot, dict):
            print(
                f"runtime-obs: {args.artifact!r} has no 'metrics' section "
                "(regenerate it with a current runtime-bench/serving-bench)"
            )
            return 2
        print(f"metrics snapshot from {args.artifact}")
    print(format_snapshot(snapshot), end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the selected experiments (or one of the runtime subcommands)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "runtime-bench":
        return _run_runtime_bench(list(argv[1:]))
    if argv and argv[0] == "serving-bench":
        return _run_serving_bench(list(argv[1:]))
    if argv and argv[0] == "runtime-serve":
        return _run_runtime_serve(list(argv[1:]))
    if argv and argv[0] == "runtime-obs":
        return _run_runtime_obs(list(argv[1:]))
    args = _parse_args(argv)
    preset = CorpusPreset(args.preset)
    harness = ExperimentHarness(preset.config(seed=args.seed))

    print(f"corpus preset: {preset.value} (seed {args.seed})")
    start = time.time()
    summary = harness.corpus.summary()
    print(
        "corpus: "
        + ", ".join(f"{key}={value:,}" for key, value in summary.items())
        + f"  [generated in {time.time() - start:.1f}s]"
    )
    print()

    for name in args.experiments:
        runner = EXPERIMENTS[name]
        start = time.time()
        result = runner(harness)
        elapsed = time.time() - start
        print(result.to_text())
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
