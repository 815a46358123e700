"""Seed-deterministic fault plans (the chaos half of section 4.3.3 / 6).

A :class:`FaultPlan` is a registry of named *injection points* — call
sites spread through the reproduction (``rpc.call``, ``replication.apply``,
``deploy.push``, ``store.commit_listener``, ``monitoring.collect``) ask the
active plan whether this particular call should fail.  Each registered
:class:`FaultSpec` decides by probability (drawn from the plan's seeded
RNG), by count (``after`` skips, ``times`` caps), by a simulated-time
window (``start``/``stop``), and by label match — so a chaos run is fully
reproducible: the same seed and the same call sequence inject exactly the
same faults.

One plan is installed process-globally (mirroring how the ``repro.obs``
registry works) so injection sites stay unconditional one-liners::

    plan = FaultPlan(seed=1337)
    plan.inject("deploy.push", probability=0.3, times=5)
    with plan.installed():
        ...  # chaos

Every injected fault increments the ``faults.injected`` counter, labeled
with its point, so telemetry shows exactly where chaos landed.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import obs
from repro.common.errors import FaultInjectedError
from repro.common.task import FaultScope, current

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "check",
    "install",
    "should_inject",
    "uninstall",
]


@dataclass
class FaultSpec:
    """One fault rule: where it fires, how often, and for how long.

    * ``probability`` — chance each matching call fails (1.0 = always);
    * ``after`` — skip the first N matching calls before arming;
    * ``times`` — stop after injecting this many faults (None = forever);
    * ``start``/``stop`` — only fire inside this simulated-time window
      (requires the plan to be bound to a clock);
    * ``match`` — labels the call site must carry (subset match, values
      compared as strings).
    """

    point: str
    probability: float = 1.0
    after: int = 0
    times: int | None = None
    start: float | None = None
    stop: float | None = None
    match: dict[str, str] = field(default_factory=dict)

    #: Calls that reached this spec (post label/window filtering).
    seen: int = 0
    #: Faults this spec actually injected.
    injected: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], not {self.probability}")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None)")
        self.match = {k: str(v) for k, v in self.match.items()}

    def matches_labels(self, labels: dict[str, Any]) -> bool:
        return all(str(labels.get(k)) == v for k, v in self.match.items())

    def in_window(self, now: float | None) -> bool:
        if self.start is None and self.stop is None:
            return True
        if now is None:
            return False  # windowed specs need a bound clock
        if self.start is not None and now < self.start:
            return False
        if self.stop is not None and now >= self.stop:
            return False
        return True

    def exhausted(self) -> bool:
        return self.times is not None and self.injected >= self.times


class FaultPlan:
    """A seeded set of fault specs plus the record of what actually fired."""

    def __init__(self, seed: int = 0, *, clock: Any | None = None):
        self.seed = seed
        self._rng = random.Random(seed)
        self._specs: list[FaultSpec] = []
        self._clock = clock
        #: Every injection, in order: (sim time or None, point, labels).
        self.injections: list[tuple[float | None, str, dict[str, str]]] = []

    # -- construction --------------------------------------------------------

    def inject(self, point: str, **kwargs: Any) -> FaultSpec:
        """Register and return a :class:`FaultSpec` for ``point``.

        Keyword arguments are the spec's fields; unknown keywords become
        label matchers, so ``plan.inject("rpc.call", method="get")`` reads
        naturally.
        """
        fields = {"probability", "after", "times", "start", "stop", "match"}
        spec_kwargs = {k: v for k, v in kwargs.items() if k in fields}
        labels = {k: v for k, v in kwargs.items() if k not in fields}
        if labels:
            spec_kwargs.setdefault("match", {}).update(labels)
        spec = FaultSpec(point=point, **spec_kwargs)
        self._specs.append(spec)
        return spec

    def add(self, spec: FaultSpec) -> FaultSpec:
        self._specs.append(spec)
        return spec

    @property
    def specs(self) -> list[FaultSpec]:
        return list(self._specs)

    def bind_clock(self, clock: Any) -> None:
        """Attach a simulated clock so time-windowed specs can fire."""
        self._clock = clock

    def _now(self) -> float | None:
        return self._clock.now if self._clock is not None else None

    # -- task-scoped state (deterministic parallel execution) ----------------

    def merge_scope(self, scope: FaultScope) -> None:
        """Fold one pool task's scope back into the plan.

        The pool coordinator calls this once per merged task, in task-key
        order, so the plan's record is identical at any worker count.
        """
        for index, count in scope.seen.items():
            self._specs[index].seen += count
        for index, count in scope.injected.items():
            self._specs[index].injected += count
        self.injections.extend(scope.injections)

    # -- the decision --------------------------------------------------------

    def should_inject(self, point: str, **labels: Any) -> bool:
        """Decide (deterministically) whether this call fails.

        Probability draws consume the plan's seeded RNG in call order, so
        two runs issuing the same calls make the same decisions.  Inside
        a pool task, draws and counters go to the task's
        :class:`~repro.common.task.FaultScope` instead (derived RNG,
        per-task ``after``/``times``) and time is the task's clock, so
        the decision for a given call depends only on the task key — not
        on how pool tasks interleave.
        """
        context = current()
        scope = context.fault_scope
        now = context.clock.now if context.clock is not None else self._now()
        for index, spec in enumerate(self._specs):
            if spec.point != point:
                continue
            injected = spec.injected if scope is None else scope.injected.get(index, 0)
            if spec.times is not None and injected >= spec.times:
                continue
            if not spec.matches_labels(labels) or not spec.in_window(now):
                continue
            if scope is None:
                spec.seen += 1
                seen = spec.seen
            else:
                seen = scope.seen.get(index, 0) + 1
                scope.seen[index] = seen
            if seen <= spec.after:
                continue
            rng = self._rng if scope is None else scope.rng
            if spec.probability < 1.0 and rng.random() >= spec.probability:
                continue
            label_strs = {k: str(v) for k, v in labels.items()}
            if scope is None:
                spec.injected += 1
                self.injections.append((now, point, label_strs))
            else:
                scope.injected[index] = injected + 1
                scope.injections.append((now, point, label_strs))
            obs.counter("faults.injected", point=point).inc()
            return True
        return False

    def injected_count(self, point: str | None = None) -> int:
        if point is None:
            return len(self.injections)
        return sum(1 for _, p, _ in self.injections if p == point)

    @contextmanager
    def installed(self) -> Iterator[FaultPlan]:
        """Install this plan globally for the duration of the block."""
        install(self)
        try:
            yield self
        finally:
            uninstall()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} specs={len(self._specs)} "
            f"injected={len(self.injections)}>"
        )


# ---------------------------------------------------------------------------
# Process-global active plan
# ---------------------------------------------------------------------------

_active: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-global active plan."""
    global _active
    _active = plan
    return plan


def uninstall() -> None:
    """Deactivate fault injection (every ``should_inject`` returns False)."""
    global _active
    _active = None


def active_plan() -> FaultPlan | None:
    return _active


def should_inject(point: str, **labels: Any) -> bool:
    """Ask the active plan (if any) whether this call should fail."""
    if _active is None:
        return False
    return _active.should_inject(point, **labels)


def check(point: str, **labels: Any) -> None:
    """Raise :class:`FaultInjectedError` if the active plan says so."""
    if should_inject(point, **labels):
        raise FaultInjectedError(f"injected fault at {point}")
