"""Dependency-free, thread-safe metrics core for the whole runtime.

One :class:`MetricsRegistry` per process (the module-global default, or
an injected instance) holds every counter, gauge and histogram the
engine, cluster, store and serving layers publish.  Three design rules
keep the hot path honest:

* **Metric handles are cheap.**  ``registry.counter(...)`` get-or-creates
  once; callers cache the returned handle and pay one lock + one float
  add per increment.  Nothing on the per-offer path touches the
  registry — instrumentation is per batch, per request, per commit.
* **A process's registry holds what that process counted.**  Every
  metric is a registry series, incremented (or, for a callback gauge,
  read) by the component that does the work, in the process where it
  runs: there is one way to publish a metric and nothing to fold in or
  to keep from being counted twice.  A cluster node process keeps its
  own registry; the coordinator's holds the coordinator's counts.
* **Snapshots are plain dicts.**  ``snapshot()`` output is
  JSON-serialisable (bench artifacts embed it verbatim) and renderable
  to Prometheus text exposition format (:func:`render_snapshot`).

Histograms use fixed log-scale latency buckets (1-2.5-5 per decade from
10µs to 60s) so every latency metric in the system shares one bucket
vocabulary; percentiles come from the same nearest-rank rule the
benches use (:mod:`repro.obs.percentiles`).
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.percentiles import nearest_rank

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "render_snapshot",
    "series_key",
    "set_registry",
]

#: Fixed log-scale latency buckets (seconds): 1-2.5-5 per decade, 10µs
#: to 60s.  Shared by every latency histogram so cross-layer comparisons
#: (span vs HTTP endpoint vs barrier) line up bucket-for-bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def series_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """The canonical series identity: ``name`` or ``name{a="v",b="w"}``.

    Labels are sorted by name and values escaped, so the key doubles as
    the exposition-line prefix and as a deterministic dict key in
    snapshots.
    """
    if not labels:
        return name
    body = ",".join(
        f'{label}="{_escape_label_value(str(value))}"'
        for label, value in sorted(labels.items())
    )
    return f"{name}{{{body}}}"


def split_series_key(key: str) -> Tuple[str, str]:
    """Split a series key into ``(family name, label body)`` (body may be '')."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace + 1 : -1]


def _format_le(bound: float) -> str:
    """Bucket upper bound as an exposition-format ``le`` value."""
    if math.isinf(bound):
        return "+Inf"
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


def _format_value(value: float) -> str:
    """A sample value in exposition format (integers without the '.0')."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing value (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value


class Gauge:
    """A value that can go up and down, or track a callback (thread-safe).

    A callback gauge reads its value at collection time — the natural
    shape for derived quantities like journal floors or replica lag,
    which already live somewhere authoritative.
    """

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value (drops any callback)."""
        with self._lock:
            self._callback = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._callback = None
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    def set_callback(self, callback: Optional[Callable[[], float]]) -> None:
        """Replace the collection-time callback (last registration wins)."""
        with self._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        """The current value (evaluates the callback, 0.0 if it fails)."""
        callback = self._callback
        if callback is None:
            return self._value
        try:
            return float(callback())
        except Exception:  # noqa: BLE001 - a scrape must never take the server down
            return 0.0


class Histogram:
    """Cumulative-bucket histogram over fixed upper bounds (thread-safe).

    Defaults to :data:`DEFAULT_LATENCY_BUCKETS`; an implicit ``+Inf``
    bucket always exists.  ``observe`` is one lock, one linear bucket
    scan (21 comparisons) and two float adds — cheap enough for every
    request/batch/commit in the system.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        if any(math.isinf(bound) for bound in bounds):
            raise ValueError("the +Inf bucket is implicit; pass finite bounds only")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot = +Inf
        self._sum = 0.0
        self._count = 0

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The finite bucket upper bounds, ascending."""
        return self._bounds

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        return self._sum

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile, resolved to a bucket upper bound.

        Uses the same rank rule as the benches
        (:func:`repro.obs.percentiles.nearest_rank`); the answer is the
        upper bound of the bucket holding that rank (the highest finite
        bound when the rank falls into ``+Inf``), i.e. an upper estimate
        with bucket resolution.  Returns 0.0 for an empty histogram.
        """
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = nearest_rank(total, fraction)
            cumulative = 0
            for index, bound in enumerate(self._bounds):
                cumulative += self._counts[index]
                if rank < cumulative:
                    return bound
            return self._bounds[-1]

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary with *cumulative* bucket counts."""
        with self._lock:
            cumulative = 0
            buckets: Dict[str, int] = {}
            for index, bound in enumerate(self._bounds):
                cumulative += self._counts[index]
                buckets[_format_le(bound)] = cumulative
            buckets["+Inf"] = cumulative + self._counts[-1]
            summary: Dict[str, object] = {
                "count": self._count,
                "sum": self._sum,
                "buckets": buckets,
            }
        for quantile in (0.5, 0.95, 0.99):
            summary[f"p{int(quantile * 100)}"] = self.percentile(quantile)
        return summary


class _SpanTimer:
    """Context manager that times a block into a span histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class _Family:
    """One metric family: a type, a help string, and labelled children."""

    __slots__ = ("name", "type", "help", "children")

    def __init__(self, name: str, metric_type: str, help_text: str) -> None:
        self.name = name
        self.type = metric_type
        self.help = help_text
        self.children: Dict[str, object] = {}


class MetricsRegistry:
    """Process-wide (but injectable) home of every metric family.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create and return the
    handle for one ``(name, labels)`` series; re-registration with a
    conflicting type raises.  ``span(name)`` times a ``with`` block into
    the shared ``span_seconds`` histogram family, labelled by span name.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}

    # -- registration ----------------------------------------------------------

    def _family(self, name: str, metric_type: str, help_text: str) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, metric_type, help_text)
                self._families[name] = family
            elif family.type != metric_type:
                raise ValueError(
                    f"metric {name!r} is already registered as a {family.type}, "
                    f"cannot re-register as a {metric_type}"
                )
            if help_text and not family.help:
                family.help = help_text
            return family

    def _child(
        self,
        name: str,
        metric_type: str,
        help_text: str,
        labels: Optional[Mapping[str, str]],
        factory: Callable[[], object],
    ) -> object:
        if labels:
            for label in labels:
                if not _LABEL_NAME_RE.match(label):
                    raise ValueError(f"invalid label name {label!r}")
        family = self._family(name, metric_type, help_text)
        key = series_key(name, labels)
        with self._lock:
            child = family.children.get(key)
            if child is None:
                child = factory()
                family.children[key] = child
            return child

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get-or-create a counter series."""
        return self._child(name, "counter", help, labels, Counter)  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        """Get-or-create a gauge series (optionally callback-backed).

        Passing ``callback`` (re)binds the collection-time callback —
        last registration wins, so a recreated component (test engines,
        restarted replicas) simply takes the series over.
        """
        gauge = self._child(name, "gauge", help, labels, Gauge)
        if callback is not None:
            gauge.set_callback(callback)  # type: ignore[union-attr]
        return gauge  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get-or-create a histogram series (default latency buckets)."""
        return self._child(  # type: ignore[return-value]
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    def span(self, name: str) -> _SpanTimer:
        """Time a ``with`` block into ``span_seconds{span=name}``.

        Span names are dotted stage paths (``"ingest.commit_barrier"``);
        see docs/observability.md for the span map.
        """
        histogram = self.histogram(
            "span_seconds",
            help="Duration of instrumented pipeline stages, by span name.",
            labels={"span": name},
        )
        return _SpanTimer(histogram)

    # -- collection ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything, as one JSON-serialisable dict.

        Shape::

            {"counters":   {series_key: value},
             "gauges":     {series_key: value},
             "histograms": {series_key: {count, sum, p50, p95, p99,
                                         buckets: {le: cumulative}}},
             "families":   {name: {"type": ..., "help": ...}}}
        """
        with self._lock:
            families = list(self._families.values())
        result: Dict[str, object] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "families": {},
        }
        for family in families:
            result["families"][family.name] = {
                "type": family.type,
                "help": family.help,
            }
            section = result[
                {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}[
                    family.type
                ]
            ]
            for key, child in list(family.children.items()):
                if isinstance(child, Histogram):
                    section[key] = child.snapshot()
                else:
                    section[key] = child.value  # type: ignore[union-attr]
        return result

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        return render_snapshot(self.snapshot())

    def clear(self) -> None:
        """Drop every family (tests and bench isolation)."""
        with self._lock:
            self._families = {}


def _sorted_buckets(buckets: Mapping[str, int]) -> List[Tuple[float, int]]:
    """Bucket (bound, cumulative) pairs, ascending, +Inf last."""
    return sorted(
        ((math.inf if le == "+Inf" else float(le), count) for le, count in buckets.items()),
        key=lambda item: item[0],
    )


def render_snapshot(snapshot: Mapping[str, object]) -> str:
    """Render a snapshot dict to Prometheus text exposition format."""
    families_meta: Mapping[str, Mapping[str, str]] = snapshot.get("families") or {}
    by_family: Dict[str, Tuple[str, List[Tuple[str, object]]]] = {}
    for section, default_type in (
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("histograms", "histogram"),
    ):
        for key, value in (snapshot.get(section) or {}).items():
            name, _ = split_series_key(key)
            meta_type = families_meta.get(name, {}).get("type", default_type)
            family = by_family.setdefault(name, (meta_type, []))
            family[1].append((key, value))
    lines: List[str] = []
    for name in sorted(by_family):
        metric_type, series = by_family[name]
        help_text = families_meta.get(name, {}).get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {metric_type}")
        for key, value in sorted(series):
            if metric_type == "histogram":
                lines.extend(_render_histogram_series(name, key, value))
            else:
                lines.append(f"{key} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def _render_histogram_series(name: str, key: str, summary: Mapping[str, object]) -> List[str]:
    """The ``_bucket`` / ``_sum`` / ``_count`` lines of one histogram series."""
    _, label_body = split_series_key(key)
    prefix = f"{label_body}," if label_body else ""
    lines: List[str] = []
    buckets: Mapping[str, int] = summary.get("buckets") or {}
    cumulative = 0
    for bound, count in _sorted_buckets(buckets):
        cumulative = count
        lines.append(
            f'{name}_bucket{{{prefix}le="{_format_le(bound)}"}} {_format_value(count)}'
        )
    total = summary.get("count", cumulative)
    suffix = f"{{{label_body}}}" if label_body else ""
    lines.append(f"{name}_sum{suffix} {_format_value(summary.get('sum', 0.0))}")
    lines.append(f"{name}_count{suffix} {_format_value(total)}")
    return lines


def format_snapshot(snapshot: Mapping[str, object]) -> str:
    """Human-readable rendering of a snapshot (the ``runtime-obs`` CLI).

    Counters and gauges print one aligned ``series value`` line each;
    histograms print count/sum and the nearest-rank p50/p95/p99.
    """
    lines: List[str] = []
    for section, title in (("counters", "counters"), ("gauges", "gauges")):
        values: Mapping[str, float] = snapshot.get(section) or {}
        if not values:
            continue
        lines.append(f"{title}:")
        width = max(len(key) for key in values)
        for key in sorted(values):
            lines.append(f"  {key:<{width}}  {_format_value(values[key])}")
    histograms: Mapping[str, Mapping[str, object]] = snapshot.get("histograms") or {}
    if histograms:
        lines.append("histograms:")
        for key in sorted(histograms):
            summary = histograms[key]
            lines.append(f"  {key}")
            lines.append(
                "    count={count}  sum={total:.6g}s  "
                "p50={p50:.6g}s  p95={p95:.6g}s  p99={p99:.6g}s".format(
                    count=summary.get("count", 0),
                    total=float(summary.get("sum", 0.0)),
                    p50=float(summary.get("p50", 0.0)),
                    p95=float(summary.get("p95", 0.0)),
                    p99=float(summary.get("p99", 0.0)),
                )
            )
    if not lines:
        return "(empty metrics snapshot)\n"
    return "\n".join(lines) + "\n"


class _NullCounter(Counter):
    """A counter that forgets everything (instrumentation-off baseline)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class _NullGauge(Gauge):
    """A gauge that forgets everything."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the change."""

    def set_callback(self, callback: Optional[Callable[[], float]]) -> None:
        """Discard the callback."""


class _NullHistogram(Histogram):
    """A histogram that forgets everything."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the sample."""


class _NullSpan:
    """A span timer that measures nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        pass


class _NullRegistry(MetricsRegistry):
    """A registry whose metrics are all no-ops.

    Inject via :func:`set_registry` to measure the cost of
    instrumentation itself (the bench overhead guard) or to silence
    metrics entirely; handles stay valid, nothing is recorded.
    """

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter()
        self._gauge = _NullGauge()
        self._histogram = _NullHistogram()
        self._span = _NullSpan()

    def counter(self, name, help="", labels=None):  # noqa: ANN001, A002
        """The shared no-op counter."""
        return self._counter

    def gauge(self, name, help="", labels=None, callback=None):  # noqa: ANN001, A002
        """The shared no-op gauge."""
        return self._gauge

    def histogram(self, name, help="", labels=None, buckets=None):  # noqa: ANN001, A002
        """The shared no-op histogram."""
        return self._histogram

    def span(self, name):  # noqa: ANN001
        """The shared no-op span timer."""
        return self._span


#: Shared no-op registry (see :class:`_NullRegistry`).
NULL_REGISTRY = _NullRegistry()

_global_registry = MetricsRegistry()
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry (unless a component was injected one)."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _global_registry
    with _global_lock:
        previous = _global_registry
        _global_registry = registry
    return previous
