"""Small numeric helpers shared by the workloads and ``compare.py``.

Percentiles use the program's own nearest-rank rule
(:func:`repro.obs.percentile`), so a ``p90`` printed here and a ``p90``
scraped from ``/metrics`` mean the same thing.  Quartiles use
``statistics.quantiles(values, n=4)`` — the rule the repeatability
criterion is stated in.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["median", "quartiles", "spread", "percentiles_ms", "peak_rss_mb"]


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (0.0 when empty)."""
    data = list(values)
    return statistics.median(data) if data else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (both equal the value for a single sample)."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0.0 for a zero median)."""
    centre = median(values)
    if centre == 0.0:
        return 0.0
    first, third = quartiles(values)
    return (third - first) / abs(centre)


def percentiles_ms(seconds: Iterable[float], fractions: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles of a latency sample, in milliseconds."""
    from repro.obs import percentile

    ordered = sorted(seconds)
    return [percentile(ordered, fraction) * 1000.0 for fraction in fractions]


def _status_fields(pid: int) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            name, _, value = line.partition(":")
            fields[name] = value.strip()
    return fields


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    return float(_status_fields(pid)["VmHWM"].split()[0]) / 1024.0
