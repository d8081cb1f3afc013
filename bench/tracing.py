"""Benchmark-side span recording around the program's layer boundaries.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the span that was open on the same thread when this one started (``-1``
for a root) and ``op`` identifies the batch or request the span belongs
to (children inherit it).  Spans stay in memory and are written out once,
when the run ends.  A layer's *self time* is its span's duration minus
the durations of its direct children, so a parent's self time plus its
children always equals its duration.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
shadows a public method on one *instance* (the classifier, clusterer,
fusion and store objects ``SynthesisEngine`` takes through its
constructor) with a timing wrapper; nothing under ``src/`` is edited.
With ``enabled`` false every entry point is a plain pass-through, which
is how the end-to-end metrics are measured.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer"]

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[List[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrapped: List[Tuple[object, str]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[object] = None) -> int:
        """Open a span on this thread; returns its index for :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][_OP]
        record = [name, 0.0, 0.0, parent, op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[_START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        """Close the span :meth:`begin` returned ``index`` for."""
        self.spans[index][_END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, op: Optional[object] = None) -> Iterator[None]:
        """Record the ``with`` block as one span (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self.begin(name, op)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, target: object, method: str, name: str) -> None:
        """Shadow ``target.method`` with a wrapper that records ``name`` spans.

        The wrapper is an instance attribute, so other instances of the
        class are untouched and :meth:`unwrap_all` restores the original
        by deleting it.
        """
        original = getattr(target, method)

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            index = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(index)

        setattr(target, method, timed)
        self._wrapped.append((target, method))

    def unwrap_all(self) -> None:
        """Remove every wrapper :meth:`wrap` installed."""
        while self._wrapped:
            target, method = self._wrapped.pop()
            delattr(target, method)

    # -- analysis --------------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list; pass it as ``since`` to look at later spans only."""
        return len(self.spans)

    def summary(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Only spans recorded at or after position ``since`` are counted
        (their children are necessarily recorded after them).
        """
        children = [0.0] * len(self.spans)
        for record in self.spans[since:]:
            if record[_PARENT] >= 0:
                children[record[_PARENT]] += record[_END] - record[_START]
        result: Dict[str, Dict[str, float]] = {}
        for index in range(since, len(self.spans)):
            record = self.spans[index]
            duration = record[_END] - record[_START]
            entry = result.setdefault(record[_NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children[index]
        return result

    def durations(self, name: str, since: int = 0) -> List[float]:
        """Every recorded duration (seconds) of spans called ``name``."""
        return [
            record[_END] - record[_START]
            for record in self.spans[since:]
            if record[_NAME] == name
        ]

    def dump(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        """Write all spans, their per-name summary and ``extra`` as JSON."""
        payload: Dict[str, object] = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "summary": self.summary(),
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=str)
            handle.write("\n")
