"""Command-line entry point: run the paper's experiments and print their tables.

Installed as ``repro-synthesize``; also runnable as
``python -m repro.experiments.cli``.

Examples
--------
Run every experiment on the small preset::

    repro-synthesize --preset small

Run only Table 2 and Figure 8 on the default (larger) preset::

    repro-synthesize --preset default --experiments table2 figure8

Serve a catalog store over HTTP (read-only; queries run concurrently
with whatever engine or cluster is writing the file), optionally as a
fleet of several replicas (``/health`` and ``/lag`` report each one)::

    repro-synthesize runtime-serve --store-path catalog.sqlite3 --port 8080
    repro-synthesize runtime-serve --store-path catalog.sqlite3 --replicas 2

Pretty-print the metrics snapshot of a running server, or the
``registry`` section of a traced gating-benchmark run (``python3
bench/run.py --workload ingest_stream --trace 1`` writes one)::

    repro-synthesize runtime-obs --url http://127.0.0.1:8080
    repro-synthesize runtime-obs --artifact bench/out/trace-ingest_stream.json

The store file ``runtime-serve`` reads is written by the library
(``SynthesisEngine(..., store="sqlite", store_path="catalog.sqlite3")``
or a cluster engine over the same path); throughput is measured by the
gating benchmark under ``bench/`` (``BENCHMARK.json``), not from here.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sqlite3
import sys
import time
from typing import Optional, Sequence

__all__ = ["main", "EXPERIMENTS"]

#: Experiment names; each is the ``repro.experiments`` module whose
#: ``run(harness)`` drives it.  Imported only when the experiments run:
#: ``runtime-serve`` must not load the harness, the corpus or numpy.
EXPERIMENTS = ("table2", "table3", "table4", "figure6", "figure7", "figure8", "figure9")


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from repro.corpus.config import CorpusPreset

    parser = argparse.ArgumentParser(
        prog="repro-synthesize",
        description="Reproduce the evaluation of 'Synthesizing Products for Online Catalogs'",
        epilog=(
            "additional commands: 'repro-synthesize runtime-serve --help' "
            "(HTTP serving), 'runtime-obs --help' (metrics snapshot viewer)"
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


def _validate_store_path(parser: argparse.ArgumentParser, path: str) -> None:
    """A clear argparse error for a store path that cannot be served.

    SQLite reports a bad path or a file that is not a database only when
    the first statement runs, as an opaque ``DatabaseError`` deep inside
    the serving layer; checking up front (the last check is the reader's
    own first read) turns a typo'd directory, a missing file or a file
    that is not a catalog store into a one-line CLI error instead of a
    traceback.
    """
    # Imported here: the tables/figures paths must not drag the serving
    # stack in.
    from repro.serving.reader import CatalogReader

    resolved = os.path.abspath(path)
    if os.path.isdir(resolved):
        parser.error(f"store path {path!r} is a directory, expected a file path")
    parent = os.path.dirname(resolved)
    if not os.path.isdir(parent):
        parser.error(f"store path {path!r} is in a directory that does not exist")
    if not os.path.exists(resolved):
        parser.error(f"store file {path!r} does not exist")
    try:
        with CatalogReader(resolved) as reader:
            reader.commit_count()
    except sqlite3.DatabaseError as exc:
        parser.error(f"store file {path!r} is not a catalog store ({exc})")


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
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.max_lag_commits < 0:
        parser.error("--max-lag-commits must be >= 0")
    _validate_store_path(parser, args.store_path)
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
        "(its /metrics.json endpoint) or from the 'registry' section "
        "of a traced bench/run.py run",
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
        help="trace file of a 'bench/run.py --trace 1' run "
        "(e.g. bench/out/trace-ingest_stream.json)",
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
        snapshot = artifact.get("registry") if isinstance(artifact, dict) else None
        if not isinstance(snapshot, dict) or not (
            {"counters", "gauges", "histograms"} & snapshot.keys()
        ):
            print(f"runtime-obs: {args.artifact!r} has no 'registry' metrics snapshot")
            return 2
        print(f"metrics snapshot from {args.artifact}")
    print(format_snapshot(snapshot), end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the selected experiments (or one of the runtime subcommands)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "runtime-serve":
        return _run_runtime_serve(list(argv[1:]))
    if argv and argv[0] == "runtime-obs":
        return _run_runtime_obs(list(argv[1:]))
    from repro.corpus.config import CorpusPreset
    from repro.experiments.harness import ExperimentHarness

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
        runner = importlib.import_module(f"repro.experiments.{name}").run
        start = time.time()
        result = runner(harness)
        elapsed = time.time() - start
        print(result.to_text())
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
