"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload ingest_stream --seed 2011 --seconds 15 --trace 0

``--trace 0`` measures with the tracer off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` re-runs the workload with
spans recorded around each layer boundary, prints every per-layer metric
and writes ``bench/out/trace-<workload>.json``.  The last line of
standard output is one JSON object; the exit code is non-zero when an
output check failed (or when there is no program to measure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

if __package__ in (None, ""):
    # Executed as a script: make ``bench`` importable as a package.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT, require_source_tree  # noqa: E402 - needs the path above


def load_spec() -> Dict[str, object]:
    """The benchmark contract: workloads and metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _parse_args(argv: Optional[Sequence[str]], spec: Dict[str, object]) -> argparse.Namespace:
    names = [entry["name"] for entry in spec["workloads"]]  # type: ignore[index, union-attr]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=2011, help="drives every generated input")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),  # type: ignore[arg-type]
        help="how long the measurement runs",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        metavar="FILE",
        help="also append the result (with workload, seed, trace, stream size and seconds) "
        "to FILE as one JSON line, the input format of bench/compare.py",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_plain(args: argparse.Namespace, out_dir: str):  # noqa: ANN202
    """Set up, then measure with the tracer off."""
    from bench.tracing import Tracer
    from bench.workloads import measure, prepare

    tracer = Tracer(enabled=False)
    started = time.perf_counter()
    prepared = prepare(args.workload, args.seed, args.seconds, out_dir, tracer)
    setup_s = time.perf_counter() - started
    try:
        outcome = measure(prepared, args.seconds, tracer, traced=False)
    finally:
        prepared.close()
    return outcome, {"setup_s": setup_s + outcome.open_s, **outcome.end_to_end}


def _run_traced(args: argparse.Namespace, out_dir: str, names: Sequence[str]):  # noqa: ANN202
    """Set up, take the per-layer ledger, measure with spans recorded."""
    from bench.checks import check_passes, reference_products
    from bench.ledger import read_path_ledger, write_path_ledger
    from bench.tracing import Tracer
    from bench.workloads import measure, prepare
    from repro.obs import get_registry

    get_registry().clear()
    tracer = Tracer(enabled=True)
    prepared = prepare(args.workload, args.seed, args.seconds, out_dir, tracer)
    try:
        inputs = prepared.inputs
        written, store_path, ledger_pass = write_path_ledger(inputs, out_dir, tracer)
        read = read_path_ledger(store_path, ledger_pass.products, args.seed, out_dir, tracer)
        outcome = measure(prepared, args.seconds, tracer, traced=True)
        registry = get_registry().snapshot()
    finally:
        prepared.close()
    outcome.problems += check_passes(
        [ledger_pass], reference_products(inputs), inputs.stream.resent
    )
    # A layer the workload does not exercise did no work: its counts and
    # shares are 0 (time-valued metrics are measured on every workload).
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(inputs.stage_seconds)
    metrics.update(written)
    metrics.update(read)
    metrics.update(outcome.per_layer)
    metrics["trace.spans"] = float(len(tracer.spans))
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    tracer.dump(
        os.path.join(out_dir, f"trace-{args.workload}.json"),
        extra={
            "workload": args.workload,
            "seed": args.seed,
            "metrics": metrics,
            "notes": outcome.notes,
            "registry": registry,
        },
    )
    return outcome, metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one workload; returns the process exit code."""
    spec = load_spec()
    args = _parse_args(argv, spec)
    require_source_tree()
    from bench import inputs

    out_dir = str(ROOT / "bench" / "out")
    os.makedirs(out_dir, exist_ok=True)
    group = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[group]}  # type: ignore[union-attr]

    started = time.perf_counter()
    if args.trace:
        outcome, measured = _run_traced(args, out_dir, list(units))
    else:
        outcome, measured = _run_plain(args, out_dir)
    metrics = {
        name: {"value": measured[name], "unit": unit} for name, unit in units.items()
    }
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }

    print(
        f"{args.workload}: seed {args.seed}, {inputs.STREAM_OFFERS} offers, {args.seconds:g} s, "
        f"trace {args.trace} ({time.perf_counter() - started:.1f} s in all)"
    )
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in outcome.notes.items():
        print(f"  note {key}: {value}")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    for problem in outcome.problems:
        print(f"  WRONG OUTPUT: {problem}")
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "offers": inputs.STREAM_OFFERS,
            "seconds": args.seconds,
            **result,
        }
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
