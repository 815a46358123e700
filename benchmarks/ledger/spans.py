"""Spans around the calls into each layer, and the reducer that turns
them into a ledger.

The tracer patches the public entry points named in ``layers.py`` with
timing wrappers for the length of a traced round and restores them
afterwards; ``src/`` is not edited.  A span carries layer, name, start,
end, parent and the op id the workload set (cluster name, change number,
tick, request number).  Spans stay in memory.

Consecutive calls into the same leaf entry point under one parent fold
into one span with a ``calls`` count and a ``busy`` total: a turn-up makes
hundreds of thousands of ``ObjectStore.get`` calls, nearly all of them
runs of FK hops inside one ``filter``, and one record per run is what
keeps the trace small and the overhead near 1.3x.

The reducer computes self time = busy - time covered by child spans, per
layer, per (caller layer -> layer) edge, per phase and per op.  Time
under a workload's phase spans that no layer span covers is
``unattributed``.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter
from typing import Any, NamedTuple

__all__ = ["Entry", "Ledger", "Span", "Tracer", "reduce_spans", "resolve"]

# A live span record is a list, indexed by these.
_LAYER, _NAME, _START, _END, _PARENT, _OP, _CALLS, _BUSY, _LAST_LEAF, _HAS_CHILD = range(10)


@dataclass(frozen=True)
class Entry:
    """One traced entry point of ``src/``."""

    layer: str
    #: ``"pkg.module:function"`` or ``"pkg.module:Class.method"`` — the
    #: module (or class) that *defines* it.
    target: str
    #: Modules that imported a module-level function by name and so hold
    #: their own reference to it.
    sites: tuple[str, ...] = ()
    #: ``"call"``, or ``"context"`` for a function returning a context
    #: manager: its ``__enter__`` and ``__exit__`` are timed, its body is not.
    kind: str = "call"
    #: Name of a counter fed from each call's result (see ``Tracer.measures``).
    measure: str = ""

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


def resolve(entry: Entry) -> tuple[Any, str, Any]:
    """``(holder, attribute, raw object)`` for an entry's defining site."""
    module_name, path = entry.target.split(":", 1)
    holder: Any = import_module(module_name)
    *owners, attr = path.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    try:
        raw = vars(holder)[attr]
    except KeyError:
        raise AttributeError(
            f"{entry.target}: {attr!r} is not defined on {holder!r} itself"
        ) from None
    return holder, attr, raw


class _Span:
    """A span the benchmark opens around its own call into ``src/``."""

    __slots__ = ("_tracer", "_layer", "_name", "_op", "_rec", "_stack", "_prev_op")

    def __init__(self, tracer: Tracer, layer: str | None, name: str, op: Any):
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._op = op

    def __enter__(self) -> _Span:
        tracer = self._tracer
        self._prev_op = tracer.op_id
        if self._op is not None:
            tracer.op_id = self._op
        self._stack = stack = tracer._stack()
        parent = stack[-1] if stack else None
        self._rec = rec = [
            self._layer, self._name, 0.0, 0.0, parent, tracer.op_id, 1, 0.0, None, False
        ]
        stack.append(rec)
        rec[_START] = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        now = perf_counter()
        self._tracer._finish(self._rec, now, self._stack)
        self._tracer.op_id = self._prev_op


class _TimedContext:
    """Proxy for a context manager whose enter and exit are spans."""

    __slots__ = ("_inner", "_enter", "_exit")

    def __init__(self, inner: Any, enter: Callable, exit_: Callable):
        self._inner = inner
        self._enter = enter
        self._exit = exit_

    def __enter__(self) -> Any:
        return self._enter(self._inner)

    def __exit__(self, *exc: Any) -> Any:
        return self._exit(self._inner, *exc)


class Tracer:
    """Installs the wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: Any = None
        #: measure name -> running total, fed by entries with ``measure``.
        self.counters: dict[str, float] = defaultdict(float)
        #: measure name -> ``fn(args, result) -> number``.
        self.measures: dict[str, Callable[[tuple, Any], float]] = {
            "rows": lambda args, result: len(result),
            "wire": lambda args, result: len(args[1]) + len(result),
        }
        # One stack per thread, so a stray thread cannot corrupt the tree.
        # The ledger runs ``parallel`` with one worker, which runs tasks
        # inline; spans from a real pool thread would have no parent and
        # the reducer drops them, so workers > 1 needs a tracer change.
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, layer: str | None, name: str, op: Any = None) -> _Span:
        """A manual span.  ``layer=None`` marks benchmark-side time (a phase
        or an op): whatever no layer span covers inside it is unattributed."""
        return _Span(self, layer, name, op)

    def _finish(self, rec: list, now: float, stack: list) -> None:
        stack.pop()
        rec[_END] = now
        duration = now - rec[_START]
        parent = rec[_PARENT]
        if parent is not None:
            if rec[_HAS_CHILD] or rec[_LAYER] is None:
                parent[_LAST_LEAF] = None
            else:
                last = parent[_LAST_LEAF]
                if (
                    last is not None
                    and last[_NAME] is rec[_NAME]
                    and last[_LAYER] is rec[_LAYER]
                ):
                    last[_END] = now
                    last[_CALLS] += 1
                    last[_BUSY] += duration
                    return
                parent[_LAST_LEAF] = rec
            parent[_HAS_CHILD] = True
        rec[_BUSY] = duration
        self.spans.append(rec)

    def _wrap(self, fn: Callable, entry: Entry, name: str | None = None) -> Callable:
        layer = entry.layer
        name = name or entry.name
        local = self._local
        finish = self._finish
        tracer = self
        measure = self.measures[entry.measure] if entry.measure else None
        counters = self.counters
        counter_key = entry.measure

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            rec = [
                layer, name, 0.0, 0.0, stack[-1] if stack else None,
                tracer.op_id, 1, 0.0, None, False,
            ]
            stack.append(rec)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(rec, perf_counter(), stack)
                raise
            finish(rec, perf_counter(), stack)
            # Measured only under a phase: a call with no enclosing span is
            # the benchmark's own bookkeeping and is not ledgered either.
            if measure is not None and stack:
                counters[counter_key] += measure(args, result)
            return result

        return traced

    def _wrap_context(self, fn: Callable, entry: Entry) -> Callable:
        enter = self._wrap(lambda cm: cm.__enter__(), entry, f"{entry.name}.enter")
        exit_ = self._wrap(
            lambda cm, *exc: cm.__exit__(*exc), entry, f"{entry.name}.exit"
        )

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> _TimedContext:
            return _TimedContext(fn(*args, **kwargs), enter, exit_)

        return traced

    # -- patching --------------------------------------------------------

    def install(self, entries: Iterable[Entry]) -> None:
        """Patch every entry (and its import sites) with a timing wrapper."""
        for entry in entries:
            holder, attr, raw = resolve(entry)
            make = self._wrap_context if entry.kind == "context" else self._wrap
            bound = isinstance(raw, (classmethod, staticmethod))
            wrapped: Any = make(raw.__func__ if bound else raw, entry)
            if bound:
                wrapped = type(raw)(wrapped)
            self._patch(holder, attr, raw, wrapped)
            for site in entry.sites:
                module = import_module(site)
                if vars(module).get(attr) is not raw:
                    raise AttributeError(
                        f"{site} does not hold {entry.target} as {attr!r}"
                    )
                self._patch(module, attr, raw, wrapped)

    def _patch(self, holder: Any, attr: str, raw: Any, wrapped: Any) -> None:
        setattr(holder, attr, wrapped)
        self._patched.append((holder, attr, raw))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patched:
            holder, attr, raw = self._patched.pop()
            setattr(holder, attr, raw)

    # -- output ----------------------------------------------------------

    def drain(self) -> list[Span]:
        """The finished spans as reducer input; clears the buffer."""
        ids = {id(rec): index for index, rec in enumerate(self.spans)}
        out = [
            Span(
                id=index,
                parent=ids.get(id(rec[_PARENT])) if rec[_PARENT] is not None else None,
                layer=rec[_LAYER],
                name=rec[_NAME],
                start=rec[_START],
                end=rec[_END],
                calls=rec[_CALLS],
                busy=rec[_BUSY],
                op=rec[_OP],
            )
            for index, rec in enumerate(self.spans)
        ]
        self.spans = []
        return out


class Span(NamedTuple):
    """A finished span, as written to ``trace-<workload>.json``."""

    id: int
    parent: int | None
    #: ``None`` for the benchmark's own phase and op spans.
    layer: str | None
    name: str
    start: float
    end: float
    #: Calls folded into this span (1 unless it is a folded leaf run).
    calls: int = 1
    #: Seconds inside the call(s): ``end - start`` unless folded, when the
    #: gaps between the folded calls belong to the parent.
    busy: float | None = None
    op: Any = None

    @property
    def covered(self) -> float:
        return self.end - self.start if self.busy is None else self.busy


@dataclass
class Ledger:
    """Self time by layer, edge, phase and op, for one or more rounds."""

    #: Sum of the root (phase) spans' durations.
    total_s: float = 0.0
    unattributed_s: float = 0.0
    busy: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: (layer, entry name) -> [busy, calls]
    names: dict[tuple[str, str], list] = field(
        default_factory=lambda: defaultdict(lambda: [0.0, 0])
    )
    #: (caller layer or "", layer) -> [busy, calls]; the caller is the
    #: nearest enclosing span of a different layer.
    edges: dict[tuple[str, str], list] = field(
        default_factory=lambda: defaultdict(lambda: [0.0, 0])
    )
    #: phase name -> layer (or "" for unattributed) -> busy
    phases: dict[str, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )
    #: op id -> [seconds, layer -> busy]
    ops: dict[Any, list] = field(
        default_factory=lambda: defaultdict(lambda: [0.0, defaultdict(float)])
    )

    def scale(self, factor: float) -> None:
        """Multiply every time by ``factor`` (raw -> reference-speed seconds)."""
        self.total_s *= factor
        self.unattributed_s *= factor
        for table in (self.busy, *self.phases.values()):
            for key in table:
                table[key] *= factor
        for table in (self.names, self.edges):
            for entry in table.values():
                entry[0] *= factor
        for entry in self.ops.values():
            entry[0] *= factor
            for key in entry[1]:
                entry[1][key] *= factor

    def merge(self, other: Ledger) -> None:
        self.total_s += other.total_s
        self.unattributed_s += other.unattributed_s
        for layer, value in other.busy.items():
            self.busy[layer] += value
        for layer, count in other.calls.items():
            self.calls[layer] += count
        for table, theirs in ((self.names, other.names), (self.edges, other.edges)):
            for key, (busy, calls) in theirs.items():
                table[key][0] += busy
                table[key][1] += calls
        for phase, layers in other.phases.items():
            for layer, value in layers.items():
                self.phases[phase][layer] += value
        for op, (seconds, layers) in other.ops.items():
            self.ops[op][0] += seconds
            for layer, value in layers.items():
                self.ops[op][1][layer] += value

    def slowest_ops(self, count: int = 10) -> list[tuple[Any, float, dict[str, float]]]:
        ranked = sorted(self.ops.items(), key=lambda item: -item[1][0])[:count]
        return [(op, seconds, dict(layers)) for op, (seconds, layers) in ranked]


def reduce_spans(spans: Iterable[Span]) -> Ledger:
    """Fold a span tree into a :class:`Ledger`.

    A span's self time is its busy time minus what its children cover.
    The ledger runs one worker, so a span's children ran one after
    another on its own thread and cover the sum of their busy times.  The
    sum of all self times under the roots then equals the roots' total
    duration — asserted here, because a ledger that does not add up to
    the wall time it explains is worse than none.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    ledger = Ledger()
    # Roots first, so a child finds its parent's context already computed.
    # id -> (phase name, caller layer), or None for a span that is not ledgered
    context: dict[int, tuple[str, str] | None] = {}
    order = sorted(spans, key=lambda s: (s.start, -s.end))
    for span in order:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            if span.layer is not None:
                # A layer call outside every phase is the benchmark's own
                # bookkeeping or output checking: not ledgered, nor is
                # anything beneath it.
                context[span.id] = None
                continue
            phase, caller = span.name, ""
            ledger.total_s += span.covered
        elif context[parent.id] is None:
            context[span.id] = None
            continue
        else:
            phase, parent_caller = context[parent.id]
            if parent.layer is None or parent.layer == span.layer:
                caller = parent_caller
            else:
                caller = parent.layer
        context[span.id] = (phase, caller)

        covered = sum(child.covered for child in children.get(span.id, ()))
        self_time = max(0.0, span.covered - covered)

        layer = span.layer
        if layer is None:
            ledger.unattributed_s += self_time
            ledger.phases[phase][""] += self_time
            if span.op is not None and (parent is None or parent.op != span.op):
                ledger.ops[span.op][0] += span.covered
        else:
            ledger.busy[layer] += self_time
            ledger.calls[layer] += span.calls
            entry = ledger.names[(layer, span.name)]
            entry[0] += self_time
            entry[1] += span.calls
            edge = ledger.edges[(caller, layer)]
            edge[0] += self_time
            edge[1] += span.calls
            ledger.phases[phase][layer] += self_time
            if span.op is not None:
                ledger.ops[span.op][1][layer] += self_time

    explained = sum(ledger.busy.values()) + ledger.unattributed_s
    if abs(explained - ledger.total_s) > 1e-6 * max(1.0, ledger.total_s):
        raise AssertionError(
            f"ledger explains {explained:.6f}s of {ledger.total_s:.6f}s traced"
        )
    return ledger
