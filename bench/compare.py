"""Compare two result sets of the benchmark, metric by metric.

A result set is a JSON-lines file written by ``bench/run.py --record``
(one line per run: workload, seed, trace flag, stream size, seconds and
the result object).  Runs of different stream sizes or lengths measure
different things, so sets that mix them are refused (exit code 2).
For every workload and end-to-end metric this prints both sets' medians
and quartiles, each set's spread (quartile distance over median), the
signed change of the second median against the first (positive = worse,
by the metric's ``better`` direction) and a verdict against the metric's
bound from ``BENCHMARK.json``:

``unresolved``
    a set's spread exceeds the bound and the sets overlap, so they cannot
    be told apart at that resolution (when every run of one set beats
    every run of the other, the spread does not matter);
``WORSE``
    otherwise, when the second median is worse than the first by more
    than the bound;
``ok``
    otherwise.

With a single file it prints that set's medians, quartiles and spreads —
the repeatability check (each spread should sit below a third of its
bound).  Exit code 1 when any verdict is ``WORSE``.

Usage::

    python3 bench/compare.py first.jsonl [second.jsonl]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT  # noqa: E402 - needs the path above
from bench.stats import median, quartiles, spread  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]
#: The (stream size, seconds) pairs the runs of a result set were made at.
Sizes = Set[Tuple[object, object]]


def load(path: str, sizes: Sizes) -> Samples:
    """Untraced values per (workload, metric) from one result set.

    The size every run was made at is added to ``sizes``.
    """
    samples: Samples = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            sizes.add((record.get("offers"), record.get("seconds")))
            for name, entry in record["metrics"].items():
                samples.setdefault((record["workload"], name), []).append(entry["value"])
    return samples


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0.0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def separated(first: Sequence[float], second: Sequence[float], better: str) -> bool:
    """Whether every run of ``second`` reads worse than every run of ``first``."""
    if better == "lower":
        return min(second) > max(first)
    return max(second) < min(first)


def verdict(
    first: Sequence[float], second: Sequence[float], better: str, bound: float
) -> Tuple[float, str]:
    """The signed change of the medians and what it means against ``bound``."""
    change = worsening(median(first), median(second), better)
    noisy = max(spread(first), spread(second)) > bound
    if noisy and not (separated(first, second, better) or separated(second, first, better)):
        return change, "unresolved"
    return change, "WORSE" if change > bound else "ok"


def _describe(values: Sequence[float]) -> str:
    low, high = quartiles(values)
    return f"{median(values):>11.5g} [{low:>10.5g} {high:>10.5g}] {spread(values):>6.1%}"


def report(first: Samples, second: Optional[Samples], spec: Dict[str, object]) -> int:
    """Print the comparison table; returns the number of ``WORSE`` verdicts."""
    worse = 0
    for workload in [entry["name"] for entry in spec["workloads"]]:  # type: ignore[union-attr]
        print(workload)
        for metric in spec["end_to_end"]:  # type: ignore[union-attr]
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            before = first.get((workload, name))
            if not before:
                continue
            line = f"  {name:<20} n={len(before):<3} {_describe(before)}"
            after = second.get((workload, name)) if second is not None else None
            if after:
                change, outcome = verdict(before, after, better, bound)
                worse += outcome == "WORSE"
                line += f" | n={len(after):<3} {_describe(after)} | {change:>+7.1%} of {bound:.0%}"
                line += f" {outcome}"
            else:
                steady = "steady" if spread(before) <= bound / 3 else "wide"
                line += f" | bound {bound:.0%} {steady}"
            print(line)
    return worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Compare the result sets named on the command line."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) not in (1, 2):
        sys.stderr.write(__doc__.split("Usage::")[1])
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    sizes: Sizes = set()
    first = load(paths[0], sizes)
    second = load(paths[1], sizes) if len(paths) == 2 else None
    if len(sizes) > 1:
        mixed = sorted(sizes, key=str)
        sys.stderr.write(f"runs of different (offers, seconds) are not comparable: {mixed}\n")
        return 2
    print("  metric               runs      median [        q1         q3] spread")
    return 1 if report(first, second, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
