"""Structured tracing for the Robotron life cycle.

A :class:`Tracer` produces nested :class:`Span` records —
design → generate → deploy → monitor operations each open a span, and
spans started while another is active become its children.  Each span
carries wall time (``time.perf_counter``), simulated time when a sim
clock is attached (any object with a ``.now`` float, e.g.
:class:`repro.simulation.clock.Clock`), a status, and free-form
attributes.

Finished spans land in an in-memory :class:`TraceSink` (bounded, oldest
spans evicted) which can render the whole run as a text flame tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.common.task import current
from repro.obs.metrics import NOOP, _Noop

__all__ = ["Span", "TraceSink", "Tracer"]


@dataclass
class Span:
    """One completed (or in-flight) traced operation."""

    span_id: int
    parent_id: int | None
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    started_wall: float = 0.0
    ended_wall: float | None = None
    started_sim: float | None = None
    ended_sim: float | None = None
    status: str = "ok"
    error: str = ""

    @property
    def wall_duration(self) -> float:
        """Wall seconds spent in the span (0.0 while still open)."""
        if self.ended_wall is None:
            return 0.0
        return self.ended_wall - self.started_wall

    @property
    def sim_duration(self) -> float | None:
        """Simulated seconds covered by the span, if a sim clock was attached."""
        if self.started_sim is None or self.ended_sim is None:
            return None
        return self.ended_sim - self.started_sim

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value


class TraceSink:
    """Bounded in-memory store of finished spans, with a flame-tree view."""

    def __init__(self, max_spans: int = 10_000):
        self.max_spans = max_spans
        #: Spans evicted from the ring since the last clear — silent
        #: truncation hides exactly the evidence a trace exists to keep,
        #: so drops are counted here and under ``obs.trace.dropped``.
        self.dropped = 0
        self._spans: list[Span] = []

    def add(self, span: Span) -> None:
        self._spans.append(span)
        overflow = len(self._spans) - self.max_spans
        if overflow > 0:
            del self._spans[:overflow]
            self.dropped += overflow
            from repro import obs

            obs.counter("obs.trace.dropped").inc(overflow)

    @property
    def spans(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def find(self, name: str) -> list[Span]:
        return [span for span in self._spans if span.name == name]

    def roots(self) -> list[Span]:
        """Top-level spans ordered by start time.

        A span whose parent was evicted from the bounded sink is treated
        as a root so the tree stays renderable.
        """
        known = {span.span_id for span in self._spans}
        return sorted(
            (
                span
                for span in self._spans
                if span.parent_id is None or span.parent_id not in known
            ),
            key=lambda span: (span.started_wall, span.span_id),
        )

    def children(self, span: Span) -> list[Span]:
        return sorted(
            (s for s in self._spans if s.parent_id == span.span_id),
            key=lambda s: (s.started_wall, s.span_id),
        )

    def render(self, *, max_roots: int | None = None) -> str:
        """The span forest as a text flame tree."""
        by_parent: dict[int | None, list[Span]] = {}
        for span in self._spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        for kids in by_parent.values():
            kids.sort(key=lambda s: (s.started_wall, s.span_id))
        lines: list[str] = []
        roots = self.roots()
        if max_roots is not None:
            roots = roots[:max_roots]
        for root in roots:
            self._render_one(root, by_parent, lines, prefix="", is_last=True, is_root=True)
        return "\n".join(lines)

    def _render_one(
        self,
        span: Span,
        by_parent: dict[int | None, list[Span]],
        lines: list[str],
        prefix: str,
        is_last: bool,
        is_root: bool,
    ) -> None:
        label = f"{span.name}  {span.wall_duration * 1000:.2f}ms"
        if span.sim_duration:
            label += f" (sim {span.sim_duration:.1f}s)"
        if span.status != "ok":
            label += f" [{span.status}: {span.error}]"
        if span.attributes:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            label += f"  {{{attrs}}}"
        if is_root:
            lines.append(label)
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + label)
            child_prefix = prefix + ("   " if is_last else "│  ")
        kids = by_parent.get(span.span_id, [])
        for i, kid in enumerate(kids):
            self._render_one(
                kid, by_parent, lines, child_prefix,
                is_last=(i == len(kids) - 1), is_root=False,
            )


class _ActiveSpan:
    """Context manager that opens a span on enter and sinks it on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: Tracer, span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.span.started_wall = perf_counter()
        clock = self._tracer.sim_clock
        if clock is not None:
            self.span.started_sim = clock.now
        self._tracer._stack.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> None:
        span = self.span
        span.ended_wall = perf_counter()
        clock = self._tracer.sim_clock
        if clock is not None:
            span.ended_sim = clock.now
        if exc_type is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc}"
        stack = self._tracer._stack
        if span in stack:
            # Pop through anything left behind by an abandoned inner span.
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        self._tracer.sink.add(span)


class Tracer:
    """Creates spans and tracks the currently-open nesting stack."""

    def __init__(self, sink: TraceSink | None = None, enabled: bool = True):
        self.enabled = enabled
        self.sink = sink or TraceSink()
        self.sim_clock: Any | None = None
        self._ids = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        # Open spans live on the ambient task context: a pool task starts
        # from the coordinator's innermost span (its parent) and can
        # neither see nor pop the rest.
        return current().spans

    def set_sim_clock(self, clock: Any | None) -> None:
        """Attach a simulated clock (anything with a float ``.now``)."""
        self.sim_clock = clock

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def span(self, name: str, **attributes: Any) -> _ActiveSpan | _Noop:
        """Open a child span of the current one (a root if none is open)."""
        if not self.enabled:
            return NOOP
        parent = self.current()
        return _ActiveSpan(
            self,
            Span(
                span_id=next(self._ids),
                parent_id=parent.span_id if parent is not None else None,
                name=name,
                attributes=dict(attributes),
            ),
        )

    def reset(self) -> None:
        self.sink.clear()
        self._stack.clear()
        self._ids = itertools.count(1)
