"""repro.obs.flight — the change-provenance flight recorder.

The paper's central claim is that *every* network change flows top-down
through one pipeline: a design mutation becomes an FBNet model diff,
which becomes regenerated configs, which become deploy waves, which the
monitoring plane then passes verdict on.  Metrics count those events and
the tracer nests them in time, but neither can answer the operator
question that matters during an incident: *which change did this?*

This module answers it.  A :class:`ChangeContext` — held on the ambient
:class:`~repro.common.task.TaskContext`, so it follows the call stack
and pool tasks inherit it — is opened by the pipeline's entry points and
carries a process-unique **change id**.  Every layer then emits typed
:class:`FlightEvent` records into one bounded, append-only ring buffer:

======================  ====================================================
``change.open/commit``  a design change opened / committed (``design/changes``)
``change.resume``       an incremental cycle picked an earlier change back up
``model.mutation``      a journal record committed under a change id (store)
``configgen.regen``     a device found dirty, with the record that dirtied it
``configgen.render``    a golden config produced outside the dirty path
``deploy.wave``         one failure-domain wave of a phased push
``deploy.push``         one device's push outcome (ok / fail / skip)
``deploy.retry``        a transient push failure absorbed inside a pool task
``deploy.rollout``      a guarded rollout started / finished (outcome verdict)
``deploy.gate``         a post-phase health-gate verdict
``deploy.lkg_restore``  a device restored to last-known-good during rollback
``deploy.drain``        a drain/undrain verification verdict for one device
``deploy.drain_rollback``  a failed drain push compensated in the store
``confmon.check``       a drift verdict (clean / drift) for one device
``syslog.message``      a syslog line received while a change was in flight
``remediation.detect``  the remediation engine accepted a detection
``remediation.action``  an automatic remediation action was selected
``remediation.verify``  post-action verification verdict for one device
``remediation.quarantine``  a device exhausted remediation and was drained
======================  ====================================================

Events emitted inside :func:`repro.parallel.run_tasks` tasks land in
the task context's buffer, which the coordinator merges back **in
task-key order** (the same discipline fault scopes use), so the ring —
and therefore :func:`deterministic_dump` — is byte-identical at any
worker count.
Wall-clock times and tracer span ids are recorded on every event for the
Chrome-trace export but excluded from the deterministic dump, which
keeps only workload-determined fields.

Query API: :func:`for_change`, :func:`for_device`, :func:`timeline`,
:func:`render_lineage` (the causal tree of one change), and
:func:`export_jsonl` for benchmark artifacts.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Iterable, Iterator

from repro.common.task import current

__all__ = [
    "ChangeContext",
    "FlightEvent",
    "FlightRecorder",
    "PHASES",
    "change_context",
    "current_change",
    "current_change_id",
    "deterministic_dump",
    "export_jsonl",
    "for_change",
    "for_device",
    "merge_events",
    "record",
    "recorder",
    "render_lineage",
    "reset",
    "suppressed",
    "timeline",
]

#: Pipeline phases in causal order — the lineage renderer groups by these.
PHASES = ("intent", "model", "generation", "deployment", "monitoring")


@dataclass(frozen=True)
class ChangeContext:
    """One in-flight change, as seen by the provenance layer."""

    change_id: str
    intent: str = ""
    #: Upstream change ids, when this context aggregates several (an
    #: incremental cycle whose dirty configs trace to multiple changes).
    causes: tuple[str, ...] = ()
    #: True when this context re-opened an earlier change's id (the
    #: incremental cycle resuming the change that dirtied its configs).
    resumed: bool = False


@dataclass
class FlightEvent:
    """One structured record in the flight log."""

    #: Global arrival order in the ring (assigned at merge time).
    seq: int
    #: The change this event belongs to ("" when unattributed).
    change_id: str
    #: Event type, ``<layer>.<what>`` (see the module table).
    kind: str
    #: Pipeline phase, one of :data:`PHASES`.
    phase: str
    model: str = ""
    object_id: int | None = None
    device: str = ""
    #: Outcome/classification: op name, ok/fail, clean/drift, gate verdict.
    verdict: str = ""
    detail: str = ""
    #: The innermost open tracer span when the event fired (links the
    #: flight log to the flame tree / Chrome trace); wall-scheduling
    #: dependent, excluded from the deterministic dump.
    span_id: int | None = None
    #: ``section/key`` of the pool task that emitted the event, "" on the
    #: coordinator.
    task_key: str = ""
    sim_time: float | None = None
    wall_time: float = 0.0

    #: Fields whose values are products of the (seeded, simulated)
    #: workload — everything except wall timing and span identity.
    DETERMINISTIC_FIELDS = (
        "seq", "change_id", "kind", "phase", "model", "object_id",
        "device", "verdict", "detail", "task_key", "sim_time",
    )

    def deterministic(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.DETERMINISTIC_FIELDS}

    def describe(self) -> str:
        """One human line: what happened, to what, with what verdict."""
        subject = self.device
        if not subject and self.model:
            subject = f"{self.model}#{self.object_id}"
        return " ".join(
            part for part in (self.kind, subject, self.verdict, self.detail) if part
        )


class FlightRecorder:
    """A bounded, append-only ring of :class:`FlightEvent` records.

    One recorder serves the whole process (module-global, like the
    metrics registry).  Appends are cheap — a dataclass build plus a
    locked list append — and the ring never grows past ``max_events``;
    evictions are counted on :attr:`dropped` and under the
    ``obs.flight.dropped`` metric rather than silently truncating.
    """

    def __init__(self, max_events: int = 10_000):
        self.max_events = max_events
        self.enabled = True
        self.dropped = 0
        self._events: list[FlightEvent] = []
        self._seq = itertools.count(1)
        self._change_ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- change ids ----------------------------------------------------------

    def new_change_id(self) -> str:
        """The next process-unique change id (``chg-000001``, ...).

        A counter, not a UUID: ids must be identical across reruns and
        worker counts for the deterministic dump to compare bit-for-bit.
        Contexts are only ever opened on the coordinator thread, so the
        allocation order is the program order.
        """
        return f"chg-{next(self._change_ids):06d}"

    # -- recording -----------------------------------------------------------

    def record(
        self,
        kind: str,
        *,
        phase: str,
        change_id: str | None = None,
        model: str = "",
        object_id: int | None = None,
        device: str = "",
        verdict: str = "",
        detail: str = "",
    ) -> FlightEvent | None:
        """Append one event (or buffer it inside a pool task).

        ``change_id=None`` attributes the event to the active
        :class:`ChangeContext`; pass an explicit id to attribute a
        downstream effect to the upstream change that caused it (e.g. a
        regeneration to the journal record that dirtied the config).
        """
        ambient = current()
        if not self.enabled or ambient.suppressed:
            return None
        if change_id is None:
            change = ambient.change
            change_id = change.change_id if change is not None else ""
        span_id: int | None = None
        sim_time: float | None = None
        tracer = _tracer
        if tracer is not None:
            span = tracer.current()
            if span is not None:
                span_id = span.span_id
            clock = tracer.sim_clock
            if clock is not None:
                sim_time = clock.now
        task_key = ""
        if ambient.key is not None:
            task_key = f"{ambient.section}/{ambient.key}"
            if ambient.clock is not None:
                sim_time = ambient.clock.now
        event = FlightEvent(
            seq=0,
            change_id=change_id,
            kind=kind,
            phase=phase,
            model=model,
            object_id=object_id,
            device=device,
            verdict=verdict,
            detail=detail,
            span_id=span_id,
            task_key=task_key,
            sim_time=sim_time,
            wall_time=perf_counter(),
        )
        if ambient.events is not None:
            ambient.events.append(event)
        else:
            with self._lock:
                self._append(event)
        return event

    def _append(self, event: FlightEvent) -> None:
        event.seq = next(self._seq)
        self._events.append(event)
        overflow = len(self._events) - self.max_events
        if overflow > 0:
            del self._events[:overflow]
            self.dropped += overflow
            _eviction_counter("obs.flight.dropped", overflow)

    def merge_events(self, events: Iterable[FlightEvent]) -> None:
        """Fold a task buffer's events into the ring, assigning sequence.

        Called by the pool coordinator once per merged task, in task-key
        order — the step that makes the ring independent of completion
        order.
        """
        with self._lock:
            for event in events:
                self._append(event)

    # -- queries -------------------------------------------------------------

    @property
    def events(self) -> list[FlightEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def timeline(self) -> list[FlightEvent]:
        """Every retained event in arrival (sequence) order."""
        return list(self._events)

    def for_change(self, change_id: str) -> list[FlightEvent]:
        """The full lineage of one change, in order."""
        return [e for e in self._events if e.change_id == change_id]

    def for_device(self, name: str) -> list[FlightEvent]:
        """Everything that happened to one device, across all changes."""
        return [e for e in self._events if e.device == name]

    def changes(self) -> list[str]:
        """Distinct change ids in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self._events:
            if event.change_id and event.change_id not in seen:
                seen[event.change_id] = None
        return list(seen)

    # -- rendering / export --------------------------------------------------

    def render_lineage(self, change_id: str) -> str:
        """The causal tree of one change: intent → mutations → configs →
        waves → verdicts, grouped by pipeline phase."""
        events = self.for_change(change_id)
        if not events:
            return f"{change_id}: no flight events recorded"
        intent = next(
            (e.detail for e in events if e.kind in ("change.open", "change.resume")),
            "",
        )
        outcome = next(
            (
                e.verdict
                for e in reversed(events)
                if e.kind in ("change.commit", "change.close", "change.abort")
            ),
            "",
        )
        header = change_id
        if intent:
            header += f"  {intent!r}"
        if outcome:
            header += f"  [{outcome}]"
        lines = [header]
        groups = [
            (phase, [e for e in events if e.phase == phase]) for phase in PHASES
        ]
        groups = [(phase, group) for phase, group in groups if group]
        for g_index, (phase, group) in enumerate(groups):
            last_group = g_index == len(groups) - 1
            lines.append(("└─ " if last_group else "├─ ") + f"{phase} ({len(group)})")
            stem = "   " if last_group else "│  "
            for e_index, event in enumerate(group):
                branch = "└─ " if e_index == len(group) - 1 else "├─ "
                lines.append(stem + branch + event.describe())
        return "\n".join(lines)

    def deterministic_dump(self) -> dict[str, Any]:
        """Workload-determined fields only — identical at any worker count.

        The event sequence is already deterministic (pool-task events
        merge in task-key order); this dump additionally strips wall
        times and span ids, which measure the machine.
        """
        return {
            "dropped": self.dropped,
            "events": [event.deterministic() for event in self._events],
        }

    def export_jsonl(self, path: str) -> int:
        """Write every retained event as one JSON object per line.

        The full record — including wall time and span id — so a run's
        flight log can be archived as a build artifact and joined
        against the Chrome trace.  Returns the number of events written.
        """
        from pathlib import Path

        events = self.events
        with Path(path).open("w") as handle:
            for event in events:
                handle.write(json.dumps(asdict(event), sort_keys=True) + "\n")
        return len(events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self._seq = itertools.count(1)
        self._change_ids = itertools.count(1)


# -- module-global recorder ----------------------------------------------------

_recorder = FlightRecorder()

#: The process tracer, wired in by ``repro.obs`` after it is built (a
#: late binding that avoids a circular import).
_tracer: Any | None = None


def _set_tracer(tracer: Any) -> None:
    global _tracer
    _tracer = tracer


def _eviction_counter(name: str, amount: int) -> None:
    """Bump an eviction metric without a module-level obs import."""
    from repro import obs

    obs.counter(name).inc(amount)


def recorder() -> FlightRecorder:
    """The process-global flight recorder."""
    return _recorder


def record(kind: str, **kwargs: Any) -> FlightEvent | None:
    return _recorder.record(kind, **kwargs)


def merge_events(events: Iterable[FlightEvent]) -> None:
    _recorder.merge_events(events)


def reset() -> None:
    """Wipe events and restart id allocation; re-enable.  Test hook."""
    _recorder.clear()
    _recorder.enabled = True


# -- change contexts -----------------------------------------------------------


def current_change() -> ChangeContext | None:
    """The active change context on this thread of control, if any."""
    ambient = current()
    return None if ambient.suppressed else ambient.change


def current_change_id() -> str:
    """The active change id, or "" — what journal records are stamped with."""
    context = current_change()
    return context.change_id if context is not None else ""


@contextmanager
def suppressed() -> Iterator[None]:
    """No stamping or recording inside the block (derived-write paths)."""
    ambient = current()
    previous, ambient.suppressed = ambient.suppressed, True
    try:
        yield
    finally:
        ambient.suppressed = previous


@contextmanager
def change_context(
    intent: str = "",
    *,
    change_id: str | None = None,
    causes: Iterable[str] = (),
) -> Iterator[ChangeContext]:
    """Open (or join) a change context around a pipeline entry point.

    * An already-active context is **joined**: nested entry points (a
      guarded deploy inside a what-if, a cycle inside a drill) attribute
      to the enclosing change rather than fragmenting the lineage.
    * With ``change_id``, the context **resumes** that earlier change —
      how an incremental cycle continues the change that dirtied its
      configs under the same id.
    * Otherwise a fresh id is allocated and a ``change.open`` event
      recorded; exiting records ``change.close`` (or ``change.abort``
      with the error, which re-raises).
    """
    ambient = current()
    if ambient.change is not None:
        yield ambient.change
        return
    resumed = change_id is not None
    context = ChangeContext(
        change_id=change_id if change_id is not None else _recorder.new_change_id(),
        intent=intent,
        causes=tuple(causes),
        resumed=resumed,
    )
    ambient.change = context
    detail = intent
    if context.causes:
        detail += f" (causes: {', '.join(context.causes)})"
    _recorder.record(
        "change.resume" if resumed else "change.open",
        phase="intent",
        change_id=context.change_id,
        detail=detail,
    )
    try:
        yield context
    except BaseException as exc:
        _recorder.record(
            "change.abort",
            phase="intent",
            change_id=context.change_id,
            verdict="error",
            detail=f"{type(exc).__name__}: {exc}",
        )
        raise
    else:
        _recorder.record(
            "change.close",
            phase="intent",
            change_id=context.change_id,
            verdict="ok",
        )
    finally:
        ambient.change = None


# -- module-level query conveniences -------------------------------------------


def timeline() -> list[FlightEvent]:
    return _recorder.timeline()


def for_change(change_id: str) -> list[FlightEvent]:
    return _recorder.for_change(change_id)


def for_device(name: str) -> list[FlightEvent]:
    return _recorder.for_device(name)


def render_lineage(change_id: str) -> str:
    return _recorder.render_lineage(change_id)


def deterministic_dump() -> dict[str, Any]:
    return _recorder.deterministic_dump()


def export_jsonl(path: str) -> int:
    return _recorder.export_jsonl(path)
