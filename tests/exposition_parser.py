"""A minimal Prometheus text-exposition parser for the test suite.

Deliberately *not* part of ``src/`` — production code only renders the
format; parsing it back exists so tests (and the CI ``/metrics`` smoke)
can validate what a real scraper would see: label escaping round-trips,
``# TYPE``/``# HELP`` metadata, and histogram ``_bucket``/``_sum``/
``_count`` consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Sample:
    """One exposition sample line, parsed."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass
class ParsedMetrics:
    """Every sample plus the family metadata of one exposition payload."""

    samples: List[Sample] = field(default_factory=list)
    types: Dict[str, str] = field(default_factory=dict)
    helps: Dict[str, str] = field(default_factory=dict)

    def names(self) -> set:
        """All sample names seen (including ``_bucket``/``_sum``/``_count``)."""
        return {sample.name for sample in self.samples}

    def value(self, name: str, **labels: str) -> float:
        """The value of the unique sample matching name + exact labels."""
        matches = [
            sample
            for sample in self.samples
            if sample.name == name and sample.labels == labels
        ]
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one sample {name!r} with labels {labels!r}, "
                f"found {len(matches)}"
            )
        return matches[0].value


def _parse_label_body(body: str, line: str) -> Dict[str, str]:
    """Parse ``a="v",b="w"`` with exposition escapes; raise on malformed."""
    labels: Dict[str, str] = {}
    position = 0
    while position < len(body):
        equals = body.find("=", position)
        if equals < 0 or body[equals + 1 : equals + 2] != '"':
            raise ValueError(f"malformed label body in line {line!r}")
        name = body[position:equals]
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"malformed label name {name!r} in line {line!r}")
        cursor = equals + 2
        value_chars: List[str] = []
        while True:
            if cursor >= len(body):
                raise ValueError(f"unterminated label value in line {line!r}")
            char = body[cursor]
            if char == "\\":
                escape = body[cursor + 1 : cursor + 2]
                if escape == "\\":
                    value_chars.append("\\")
                elif escape == '"':
                    value_chars.append('"')
                elif escape == "n":
                    value_chars.append("\n")
                else:
                    raise ValueError(f"unknown escape \\{escape} in line {line!r}")
                cursor += 2
                continue
            if char == '"':
                cursor += 1
                break
            value_chars.append(char)
            cursor += 1
        labels[name] = "".join(value_chars)
        if cursor < len(body):
            if body[cursor] != ",":
                raise ValueError(f"expected ',' between labels in line {line!r}")
            cursor += 1
        position = cursor
    return labels


def _parse_value(text: str, line: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"malformed sample value {text!r} in line {line!r}")


def parse(text: str) -> ParsedMetrics:
    """Parse one exposition payload; raises ``ValueError`` when malformed."""
    parsed = ParsedMetrics()
    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP ") :].partition(" ")
            parsed.helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, metric_type = line[len("# TYPE ") :].partition(" ")
            if metric_type not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"unknown metric type in line {line!r}")
            parsed.types[name] = metric_type
            continue
        if line.startswith("#"):
            continue  # other comments are legal and ignored
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ValueError(f"unbalanced braces in line {line!r}")
            name = line[:brace]
            labels = _parse_label_body(line[brace + 1 : close], line)
            value_text = line[close + 1 :].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
        if not name:
            raise ValueError(f"missing sample name in line {line!r}")
        parsed.samples.append(Sample(name, labels, _parse_value(value_text, line)))
    return parsed


def _histogram_series(
    parsed: ParsedMetrics, family: str
) -> Dict[Tuple[Tuple[str, str], ...], Dict[str, object]]:
    """Group one histogram family's samples by their non-``le`` labels."""
    series: Dict[Tuple[Tuple[str, str], ...], Dict[str, object]] = {}
    for sample in parsed.samples:
        if sample.name == f"{family}_bucket":
            labels = dict(sample.labels)
            le = labels.pop("le", None)
            if le is None:
                raise ValueError(f"{family}_bucket sample without an le label")
            entry = series.setdefault(tuple(sorted(labels.items())), {"buckets": []})
            entry["buckets"].append((_parse_value(le, le), sample.value))
        elif sample.name in (f"{family}_sum", f"{family}_count"):
            entry = series.setdefault(
                tuple(sorted(sample.labels.items())), {"buckets": []}
            )
            entry[sample.name.rsplit("_", 1)[1]] = sample.value
    return series


def validate_histograms(parsed: ParsedMetrics) -> None:
    """Assert every histogram family is internally consistent.

    Checks, per labelled series: bucket bounds strictly ascending with a
    ``+Inf`` bucket last, cumulative counts non-decreasing, the ``+Inf``
    bucket equal to ``_count``, and ``_sum``/``_count`` present.
    """
    families = [name for name, kind in parsed.types.items() if kind == "histogram"]
    for family in families:
        series = _histogram_series(parsed, family)
        if not series:
            raise ValueError(f"histogram family {family!r} has no samples")
        for labels, entry in series.items():
            buckets = sorted(entry["buckets"], key=lambda pair: pair[0])
            if "count" not in entry or "sum" not in entry:
                raise ValueError(f"{family}{dict(labels)} lacks _sum/_count samples")
            if not buckets or not math.isinf(buckets[-1][0]):
                raise ValueError(f"{family}{dict(labels)} lacks a +Inf bucket")
            bounds = [bound for bound, _ in buckets]
            if len(set(bounds)) != len(bounds):
                raise ValueError(f"{family}{dict(labels)} has duplicate le bounds")
            counts = [count for _, count in buckets]
            if any(later < earlier for earlier, later in zip(counts, counts[1:])):
                raise ValueError(f"{family}{dict(labels)} buckets are not cumulative")
            if counts[-1] != entry["count"]:
                raise ValueError(
                    f"{family}{dict(labels)}: +Inf bucket {counts[-1]} != "
                    f"_count {entry['count']}"
                )
