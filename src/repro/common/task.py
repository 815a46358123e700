"""The one ambient per-task context.

Everything a unit of work carries implicitly lives on one
:class:`TaskContext`, held in one context variable and read through
:func:`current`.  The subsystems that own a piece of it
(:mod:`repro.faults`, :mod:`repro.obs.flight`, :mod:`repro.obs.trace`,
the FBNet store's read tracking, :mod:`repro.parallel`) keep no
per-thread state of their own, so ``repro.parallel.run_tasks`` makes an
outcome independent of the worker count by one rule, stated here once:

==================  =========  ==========================================
state               child      merged back (task-key order, cancelled
                               tasks discarded)
==================  =========  ==========================================
change context      inherited  —
suppressed flag     inherited  —
open spans          inherited  — (the innermost open span is the parent)
fault scope         fresh      counters and injections → the plan
flight events       fresh      → the ring
read-tracker frame  fresh      → every enclosing tracker, ``merge``
task clock          fresh      batch maximum → the shared clock
==================  =========  ==========================================

This module imports nothing from :mod:`repro`, so every layer can use
it without a cycle.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

__all__ = [
    "FaultScope",
    "TaskClock",
    "TaskContext",
    "current",
    "current_task",
    "task_clock",
    "use",
]


class TaskClock:
    """A task-local view of the simulated clock.

    Reads start from the shared clock's value at task launch; ``advance``
    accumulates into a private offset.  The coordinator folds the maximum
    offset of a batch back into the real clock, so retry backoffs taken
    concurrently overlap in simulated time instead of serializing — and
    the final clock value is independent of completion order.
    """

    __slots__ = ("_base", "offset")

    def __init__(self, base_now: float):
        self._base = base_now
        self.offset = 0.0

    @property
    def now(self) -> float:
        return self._base + self.offset

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self.offset += seconds
        return self.now


class FaultScope:
    """One task's partition of a fault plan's mutable injection state.

    Inside a pool task ``FaultPlan.should_inject`` draws from this RNG —
    seeded from ``(plan seed, task key)``, stable across runs and
    interpreter invocations (unlike ``hash()``, which is salted) — and
    counts ``seen``/``injected`` per spec index here.  Count-based spec
    semantics (``after``/``times``) therefore apply *per task* inside
    pooled sections — the only reading that is order-independent.
    """

    __slots__ = ("rng", "seen", "injected", "injections")

    def __init__(self, seed: int, key: str):
        digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
        self.rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.seen: dict[int, int] = {}
        self.injected: dict[int, int] = {}
        self.injections: list[tuple[float | None, str, dict[str, str]]] = []


class TaskContext:
    """The ambient state of one thread of control (see the module table).

    Outside the pool every thread runs under a root context (``key`` is
    ``None``, events go straight to the ring, faults draw from the plan);
    inside, under the child :meth:`derive` built for its task.
    """

    __slots__ = (
        "key", "section", "clock", "fault_scope", "events",
        "change", "suppressed", "spans", "trackers",
    )

    def __init__(self) -> None:
        #: Pool-task identity; ``key`` is ``None`` on a root context.
        self.key: str | None = None
        self.section = ""
        self.clock: TaskClock | None = None
        self.fault_scope: FaultScope | None = None
        #: Flight events buffered for the coordinator; ``None`` = unbuffered.
        self.events: list[Any] | None = None
        #: The active ``flight.ChangeContext`` and the no-recording flag.
        self.change: Any | None = None
        self.suppressed = False
        #: Open tracer spans, innermost last.
        self.spans: list[Any] = []
        #: Open read-tracker stacks, per store (``track_reads``).  An
        #: entry exists only while its stack is non-empty.
        self.trackers: dict[Any, list[Any]] = {}

    def derive(
        self,
        key: str,
        section: str,
        *,
        clock_now: float | None = None,
        fault_seed: int | None = None,
    ) -> TaskContext:
        """The context one pool task runs under: inherit, then fresh."""
        child = TaskContext()
        child.key = key
        child.section = section
        child.change = self.change
        child.suppressed = self.suppressed
        child.spans = self.spans[-1:]
        child.events = []
        if clock_now is not None:
            child.clock = TaskClock(clock_now)
        if fault_seed is not None:
            child.fault_scope = FaultScope(fault_seed, key)
        # One empty frame per store with an enclosing tracker, of that
        # tracker's type (a ``ReadSet``; this module cannot import it).
        child.trackers = {
            store: [type(stack[-1])()] for store, stack in self.trackers.items()
        }
        return child

    def merge_reads(self, child: TaskContext) -> None:
        """Fold a finished task's read frames into the enclosing trackers."""
        for store, stack in self.trackers.items():
            frame = child.trackers[store][0]
            for tracker in stack:
                tracker.merge(frame)


_context: ContextVar[TaskContext] = ContextVar("repro_task")


def current() -> TaskContext:
    """This thread's context (a root one is made on first use)."""
    try:
        return _context.get()
    except LookupError:
        context = TaskContext()
        _context.set(context)
        return context


@contextmanager
def use(context: TaskContext) -> Iterator[TaskContext]:
    """Run a block under ``context`` — how the pool enters a task."""
    token = _context.set(context)
    try:
        yield context
    finally:
        _context.reset(token)


def current_task() -> TaskContext | None:
    """The pool task running on this thread, if any."""
    context = current()
    return context if context.key is not None else None


def task_clock(default: Any) -> Any:
    """The running task's :class:`TaskClock`, else ``default``.

    Call sites that sleep on the simulated clock (retry backoff, poll
    timestamps) route through this so the same code is correct both on
    the coordinator and inside a pool task.
    """
    clock = current().clock
    return clock if clock is not None else default
