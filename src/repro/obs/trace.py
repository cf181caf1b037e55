"""Nestable wall-clock trace spans and the profile-tree renderer.

A *span* measures one pipeline stage.  Spans nest: entering a span while
another is open makes it a child, so a cross-validation run produces a
tree like ``cv/fold/fit/train``.  On exit each span reports its
slash-joined path, duration, and attributes to the tracer's ``on_close``
hook (wired to the event log by :mod:`repro.obs`), which is how spans
reach the JSONL stream.

:func:`format_span_tree` renders ``(path, duration)`` pairs — whether
harvested live from a :class:`Tracer` or reloaded from a JSONL run file —
into the identical aggregated profile tree, so ``repro train --profile``
and ``repro report`` print the same summary.
"""

from __future__ import annotations

import threading
from time import perf_counter

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span_rows",
    "format_span_tree",
]


class Span:
    """One timed stage; a reentrant-unsafe, single-use context manager."""

    __slots__ = ("name", "attrs", "parent", "children", "start", "end", "error", "_tracer")

    def __init__(self, name: str, tracer: "Tracer", attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.start: float | None = None
        self.end: float | None = None
        self.error: str | None = None
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Elapsed seconds (live while the span is still open)."""
        if self.start is None:
            return 0.0
        return (self.end if self.end is not None else perf_counter()) - self.start

    @property
    def path(self) -> str:
        parts = []
        node: Span | None = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict:
        """Serializable snapshot of this span's subtree.

        The inverse of :meth:`Tracer.graft`: worker processes ship their
        finished span trees across the process boundary as plain dicts
        and the parent re-roots them under its own open span.
        """
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration": self.duration,
            "error": self.error,
            "children": [child.to_dict() for child in self.children],
        }

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self.parent = self._tracer.current()
        self.start = perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._pop(self)
        return False  # never swallow exceptions

    def __repr__(self) -> str:
        return f"Span({self.path!r}, {self.duration:.6f}s)"


class _NullSpan:
    """Shared no-op span used when observability is disabled.

    Stateless, so one instance can be open in any number of ``with``
    blocks at once.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; one stack per thread, one shared root list.

    :attr:`max_roots` bounds the finished root spans kept in
    :attr:`roots` (``None``, the default, keeps every one: a run's
    profile report needs them all).  A long-lived process that records a
    root per request sets a bound, so memory and garbage-collection
    passes do not grow with the number of requests served; at least the
    ``max_roots`` most recent roots are kept.
    """

    def __init__(self, on_close=None) -> None:
        self.on_close = on_close
        self.max_roots: int | None = None
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _add_root(self, span: Span) -> None:
        with self._lock:
            self.roots.append(span)
            bound = self.max_roots
            # Trim in chunks of ``bound`` so each append stays O(1) amortised.
            if bound is not None and len(self.roots) > 2 * bound:
                del self.roots[: len(self.roots) - bound]

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_path(self) -> str:
        node = self.current()
        return node.path if node is not None else ""

    def current_attr(self, key: str):
        """Innermost value of ``key`` among the open spans (None if unset)."""
        node = self.current()
        while node is not None:
            if key in node.attrs:
                return node.attrs[key]
            node = node.parent
        return None

    def span(self, name: str, **attrs) -> Span:
        return Span(name, self, attrs)

    # -- bookkeeping (called by Span) -----------------------------------
    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Exception safety: unwind past any children that never ran
        # __exit__ (can only happen if a generator holding a span was
        # abandoned); the closing span is always removed.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if span.parent is not None:
            span.parent.children.append(span)
        else:
            self._add_root(span)
        if self.on_close is not None:
            self.on_close(span)

    def graft(self, tree: dict, parent: Span | None = None) -> Span:
        """Attach a serialized span tree (:meth:`Span.to_dict`) to this tracer.

        ``parent`` defaults to the innermost open span, so a tree
        recorded in a worker process with a ``fold/...`` path re-roots as
        ``cv/fold/...`` when merged while the parent's ``cv`` span is
        still open.  Durations are taken from the tree (the worker's
        wall clock); children close before their parent, mirroring live
        execution, so ``on_close`` fires in the same order a local run
        would produce.
        """
        if parent is None:
            parent = self.current()
        sp = Span(str(tree["name"]), self, dict(tree.get("attrs") or {}))
        sp.parent = parent
        sp.start = 0.0
        sp.end = float(tree.get("duration") or 0.0)
        sp.error = tree.get("error")
        for child in tree.get("children", ()):
            self.graft(child, parent=sp)
        if parent is not None:
            parent.children.append(sp)
        else:
            self._add_root(sp)
        if self.on_close is not None:
            self.on_close(sp)
        return sp

    def reset(self) -> None:
        self.roots = []
        self._local = threading.local()

    # -- harvesting -----------------------------------------------------
    def rows(self) -> list[tuple[str, float]]:
        """All finished spans as (path, duration) pairs."""
        return span_rows(self.roots)

    def render(self) -> str:
        """Aggregated profile tree of everything recorded so far."""
        return format_span_tree(self.rows())


def span_rows(roots: list[Span]) -> list[tuple[str, float]]:
    """Flatten span trees into (path, duration) pairs, parents first."""
    rows: list[tuple[str, float]] = []

    def walk(node: Span) -> None:
        rows.append((node.path, node.duration))
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    return rows


def _tree() -> dict:
    return {"count": 0, "total": 0.0, "children": {}}


def format_span_tree(rows: list[tuple[str, float]], indent: int = 2) -> str:
    """Render (path, duration) pairs as an aggregated profile tree.

    Spans sharing a path are merged (count x total); children are listed
    under their parent sorted by total time descending, with a percentage
    of the parent's total.  Output is deterministic given the same set of
    rows, whichever order they arrive in.
    """
    root = _tree()
    for path, duration in rows:
        node = root
        for part in path.split("/"):
            node = node["children"].setdefault(part, _tree())
        node["count"] += 1
        node["total"] += duration

    if not root["children"]:
        return "(no spans recorded)"

    def label_width(node: dict, depth: int) -> int:
        widths = [
            max(indent * depth + len(name), label_width(child, depth + 1))
            for name, child in node["children"].items()
        ]
        return max(widths, default=0)

    width = max(label_width(root, 0), 20)
    lines = [f"{'stage':<{width}s} {'calls':>6s} {'total':>10s} {'share':>7s}"]

    def emit(name: str, node: dict, depth: int, parent_total: float | None) -> None:
        label = " " * (indent * depth) + name
        share = (
            f"{100.0 * node['total'] / parent_total:6.1f}%"
            if parent_total
            else "      -"
        )
        lines.append(
            f"{label:<{width}s} {node['count']:>6d} {node['total']:>9.3f}s {share}"
        )
        ordered = sorted(
            node["children"].items(), key=lambda kv: (-kv[1]["total"], kv[0])
        )
        for child_name, child in ordered:
            emit(child_name, child, depth + 1, node["total"])

    top = sorted(root["children"].items(), key=lambda kv: (-kv[1]["total"], kv[0]))
    for name, node in top:
        emit(name, node, 0, None)
    return "\n".join(lines)
