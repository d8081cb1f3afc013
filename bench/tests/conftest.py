"""Make the benchmark package and the program importable for the self-test."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import require_source_tree  # noqa: E402 - needs the path above

require_source_tree()
