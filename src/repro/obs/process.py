"""The process's own memory, read from inside.

:func:`process_memory` reports the resident set (``VmRSS``) and its peak
(``VmHWM``) from ``/proc/self/status``.  Where ``/proc`` is missing it
falls back to :func:`resource.getrusage`, which knows only the peak;
where neither exists the dict is empty.  A missing number is left out,
never reported as zero.
:func:`register_process_gauges` exports whatever is available as
``process_resident_bytes`` / ``process_peak_resident_bytes`` callback
gauges, read at scrape time.
"""

from __future__ import annotations

import sys
from typing import Dict

from repro.obs.metrics import MetricsRegistry

__all__ = ["process_memory", "register_process_gauges"]

#: ``/proc/self/status`` field -> key of :func:`process_memory`.
_STATUS_FIELDS = {"VmRSS": "resident_bytes", "VmHWM": "peak_resident_bytes"}

#: :func:`process_memory` key -> help text of its ``process_<key>`` gauge.
_HELP = {
    "resident_bytes": "Resident set size of this process.",
    "peak_resident_bytes": "Peak resident set size of this process since it started.",
}


def process_memory() -> Dict[str, int]:
    """``{"resident_bytes": ..., "peak_resident_bytes": ...}``, each only where known."""
    memory: Dict[str, int] = {}
    try:
        with open("/proc/self/status", "rb") as status:
            lines = status.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        name, _, value = line.decode("ascii", "replace").partition(":")
        key = _STATUS_FIELDS.get(name)
        if key is not None:
            memory[key] = int(value.split()[0]) * 1024  # the kernel reports kB
    if "peak_resident_bytes" not in memory:
        memory.update(_peak_from_rusage())
    return memory


def _peak_from_rusage() -> Dict[str, int]:
    try:
        import resource
    except ImportError:  # no getrusage on this platform
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere.
    return {"peak_resident_bytes": peak if sys.platform == "darwin" else peak * 1024}


def register_process_gauges(registry: MetricsRegistry) -> None:
    """Export the available :func:`process_memory` numbers as callback gauges."""
    for key in process_memory():
        registry.gauge(
            f"process_{key}", help=_HELP[key], callback=lambda key=key: process_memory()[key]
        )
