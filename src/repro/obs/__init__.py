"""Unified observability layer: metrics registry, spans, exposition.

See :mod:`repro.obs.metrics` for the core and docs/observability.md for
the metric catalog and span map.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_snapshot,
    get_registry,
    render_snapshot,
    series_key,
    set_registry,
)
from repro.obs.percentiles import nearest_rank, percentile
from repro.obs.process import process_memory, register_process_gauges

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_snapshot",
    "get_registry",
    "nearest_rank",
    "percentile",
    "process_memory",
    "register_process_gauges",
    "render_snapshot",
    "series_key",
    "set_registry",
]
