"""In-memory spans and self-time accounting for the traced run.

A span has a name, a start and an end (``time.perf_counter`` seconds,
which on Linux is the system-wide monotonic clock, so spans recorded in
the server process line up with the client's), a parent, and a trace id
shared by every span of one request.  Spans are kept in memory and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None = None
    trace_id: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink; nesting is tracked per thread."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(id_base + 1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str, trace_id: str | None = None, **attrs):
        """Time the body as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            span_id=self.next_id(),
            parent_id=parent.span_id if parent else None,
            trace_id=trace_id if trace_id is not None else (
                parent.trace_id if parent else None
            ),
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.add(span)

    def add(self, span: Span) -> Span:
        with self._lock:
            self.spans.append(span)
        return span

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        dump_spans(spans, path)


def dump_spans(spans: list[Span], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in spans], fh)


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**raw) for raw in json.load(fh)]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, []), s.start, s.end)
        for s in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


#: Span-name prefix of the tracer's own bookkeeping.
BOOKKEEPING = "trace."


def aggregate(
    spans: list[Span], window: tuple[float, float] | None = None
) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is computed over the whole span tree before ``window``
    (spans starting inside ``[lo, hi]``) selects what is counted, so a
    child outside the window is never charged to its parent.
    Bookkeeping spans (:data:`BOOKKEEPING`) are left out, and their time
    is taken out of every enclosing span's inclusive total.
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    bookkeeping: dict[int, float] = {}
    for s in spans:
        if s.name.startswith(BOOKKEEPING):
            parent = by_id.get(s.parent_id)
            while parent is not None:
                bookkeeping[parent.span_id] = (
                    bookkeeping.get(parent.span_id, 0.0) + s.duration
                )
                parent = by_id.get(parent.parent_id)
    out: dict[str, LayerTotals] = {}
    for s in spans:
        if s.name.startswith(BOOKKEEPING):
            continue
        if window is not None and not window[0] <= s.start <= window[1]:
            continue
        t = out.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.total_s += s.duration - bookkeeping.get(s.span_id, 0.0)
        t.self_s += own[s.span_id]
    return out
