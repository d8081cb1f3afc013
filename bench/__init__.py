"""The gating benchmark for the offer path and the query path.

One command (``python3 bench/run.py``) builds a seeded synthetic corpus,
runs one of four named workloads against the ``repro`` runtime and
serving layers, checks the outputs, and prints every metric named in
``BENCHMARK.json``.  See ``bench/README.md``.

The benchmark lives outside ``src/`` on purpose: it measures the program
through its public entry points and never edits it.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["ROOT", "SRC", "require_source_tree"]

#: The checkout the benchmark runs in (parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test.
SRC = ROOT / "src"


def require_source_tree() -> None:
    """Put ``src/`` on ``sys.path``, or exit non-zero when it is absent.

    The benchmark measures the program in its checkout; a directory that
    holds only the benchmark has nothing to measure, so this refuses to
    run there instead of printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: no program to measure: {SRC / 'repro'} is missing "
            "(run from a full checkout)\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
