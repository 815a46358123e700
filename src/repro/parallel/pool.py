"""A deterministic worker pool for the management plane's hot paths.

The paper's Robotron runs config generation, deployment, and monitoring
collection over tens of thousands of devices; a single-threaded loop
leaves the hardware idle exactly where the scale lives.  This module is
the substrate the hot paths fan out on — with one hard rule: **the result
of a run must not depend on the worker count**.

Every task carries a stable string *key*, and :func:`run_tasks` merges
results (and raises errors) in task order, never completion order.  All
ambient state follows the same discipline through one value: each task
runs under a :class:`~repro.common.task.TaskContext` derived from the
coordinator's (that module's table says what is inherited, what is fresh
and what is merged back), so a task draws faults from an RNG seeded by
``(plan seed, task key)``, buffers its flight events and reads, and
never touches the shared simulated clock — the coordinator advances it
once per batch by the *maximum* per-task offset (concurrent waits
overlap in simulated time, and a float max — unlike a sum — does not
depend on completion order).

Worker count comes from ``ROBOTRON_WORKERS`` (default 1) or the
:func:`workers` override.  Instrumentation: ``parallel.tasks`` counts
merged tasks, ``parallel.queue_depth`` histograms the backlog at each
task start, ``parallel.stragglers`` counts tasks that ran far past the
batch median, and ``parallel.worker.utilization`` gauges per-worker busy
share (the latter three are wall-time-dependent and excluded from
:func:`repro.obs.deterministic_dump`).
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Any

from repro import faults, obs
from repro.common.task import (
    TaskClock,
    TaskContext,
    current,
    current_task,
    task_clock,
    use,
)
from repro.obs import flight

__all__ = [
    "SLOW_TASK_SECONDS",
    "TaskClock",
    "TaskContext",
    "TaskResult",
    "WORKERS_ENV",
    "configured_workers",
    "current_task",
    "raise_first_error",
    "run_tasks",
    "set_workers",
    "task_clock",
    "workers",
]

#: Environment variable selecting the default worker count.
WORKERS_ENV = "ROBOTRON_WORKERS"

#: Wall seconds a ``parallel.slow_task`` fault injection stalls a task —
#: long enough to dominate a batch, short enough for tests.
SLOW_TASK_SECONDS = 0.05

#: A merged task is a straggler when it ran this many times longer than
#: the batch median (and longer than an absolute floor, so microsecond
#: batches don't flag noise).
STRAGGLER_FACTOR = 8.0
_STRAGGLER_FLOOR = 0.02

_workers_override: int | None = None


def configured_workers() -> int:
    """The pool size: the :func:`set_workers` override, else the env var."""
    if _workers_override is not None:
        return _workers_override
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def set_workers(count: int | None) -> None:
    """Override the worker count process-wide (``None`` clears it)."""
    global _workers_override
    if count is not None and count < 1:
        raise ValueError(f"worker count must be >= 1, not {count}")
    _workers_override = count


@contextmanager
def workers(count: int) -> Iterator[None]:
    """Run a block at a fixed worker count (tests, benchmarks)."""
    previous = _workers_override
    set_workers(count)
    try:
        yield
    finally:
        set_workers(previous)


@dataclass
class TaskResult:
    """One task's outcome, in task (not completion) order."""

    key: str
    value: Any = None
    error: BaseException | None = None
    #: True when the task was skipped (or its effects discarded) because
    #: an earlier-keyed task errored under ``cancel_on_error``.
    cancelled: bool = False
    wall_seconds: float = 0.0
    #: Simulated seconds the task's :class:`TaskClock` accumulated.
    clock_advance: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.cancelled


def raise_first_error(results: list[TaskResult]) -> list[TaskResult]:
    """Raise the smallest-keyed error in ``results``, if any."""
    for result in results:
        if result.error is not None:
            raise result.error
    return results


def run_tasks(
    tasks: Iterable[tuple[str, Callable[[], Any]]],
    *,
    section: str,
    workers: int | None = None,
    clock: Any | None = None,
    cancel_on_error: bool = False,
) -> list[TaskResult]:
    """Run keyed tasks across the pool; results come back in task order.

    ``section`` labels the instrumentation and the ``parallel.slow_task``
    fault point.  With ``clock``, each task runs against a private
    :class:`TaskClock` and the real clock is advanced once, by the batch
    maximum.  With ``cancel_on_error`` (for *pure* tasks like config
    renders), tasks after the first-keyed error are cancelled — their
    contexts are never merged — so the visible outcome is
    identical at any worker count; tasks that had already started still
    run to completion (the pool drains cleanly) but their effects are
    discarded.

    Tasks started before the cancellation signal may still bump their own
    subsystem counters; everything merged here (results, fault record,
    flight events, read-sets, clock) stays deterministic.
    """
    task_list = [(str(key), fn) for key, fn in tasks]
    keys = [key for key, _ in task_list]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate task keys in section {section!r}")
    count = configured_workers() if workers is None else int(workers)
    if count < 1:
        raise ValueError(f"worker count must be >= 1, not {count}")
    count = min(count, len(task_list)) if task_list else 1

    plan = faults.active_plan()
    fault_seed = plan.seed if plan is not None else None
    parent = current()
    results = [TaskResult(key=key) for key in keys]
    children: list[TaskContext | None] = [None] * len(task_list)
    stop = threading.Event()
    state_lock = threading.Lock()
    started_count = 0
    worker_busy: dict[int, float] = {}
    pool_started = time.perf_counter()

    def execute(index: int) -> None:
        nonlocal started_count
        result = results[index]
        if stop.is_set():
            result.cancelled = True
            return
        with state_lock:
            started_count += 1
            depth = len(task_list) - started_count
            worker_busy.setdefault(threading.get_ident(), 0.0)
        obs.histogram(
            "parallel.queue_depth", obs.COUNT_BUCKETS, section=section
        ).observe(depth)
        key, fn = task_list[index]
        child = children[index] = parent.derive(
            key,
            section,
            clock_now=clock.now if clock is not None else None,
            fault_seed=fault_seed,
        )
        started = time.perf_counter()
        try:
            with use(child):
                _maybe_straggle(section, key)
                result.value = fn()
        except BaseException as exc:  # noqa: BLE001 - merged, re-raised in key order
            result.error = exc
            if cancel_on_error:
                stop.set()
        finally:
            result.wall_seconds = time.perf_counter() - started
            if child.clock is not None:
                result.clock_advance = child.clock.offset
            with state_lock:
                worker_busy[threading.get_ident()] = (
                    worker_busy.get(threading.get_ident(), 0.0)
                    + result.wall_seconds
                )

    if count == 1:
        for index in range(len(task_list)):
            execute(index)
    else:
        with ThreadPoolExecutor(
            max_workers=count, thread_name_prefix=f"repro-{section}"
        ) as pool:
            futures = [pool.submit(execute, i) for i in range(len(task_list))]
            for future in futures:
                future.result()

    # Merge in task order.  Under cancel_on_error, everything after the
    # first-keyed error is cancelled and its effects discarded; tasks
    # before it are guaranteed complete (the executor starts tasks in
    # submission order, so every smaller index started — and ran to
    # completion — before the error could be observed).
    merge_until = len(task_list)
    if cancel_on_error:
        for index, result in enumerate(results):
            if result.error is not None:
                merge_until = index + 1
                break
        for result in results[merge_until:]:
            result.cancelled = True
            result.value = None
            result.error = None

    merged = [r for r in results[:merge_until] if not r.cancelled]
    for child, result in zip(children, results[:merge_until]):
        if result.cancelled:  # never started, so no context either
            continue
        if child.fault_scope is not None:
            plan.merge_scope(child.fault_scope)
        if child.events:
            flight.merge_events(child.events)
        parent.merge_reads(child)
    if clock is not None and merged:
        advance = max(result.clock_advance for result in merged)
        if advance > 0.0:
            clock.advance(advance)

    if merged:
        obs.counter("parallel.tasks", section=section).inc(len(merged))
        batch_median = median(result.wall_seconds for result in merged)
        threshold = max(_STRAGGLER_FLOOR, STRAGGLER_FACTOR * batch_median)
        stragglers = sum(1 for r in merged if r.wall_seconds > threshold)
        if stragglers:
            obs.counter("parallel.stragglers", section=section).inc(stragglers)
    elapsed = time.perf_counter() - pool_started
    if elapsed > 0.0:
        for slot, ident in enumerate(sorted(worker_busy)):
            obs.gauge(
                "parallel.worker.utilization", section=section, worker=slot
            ).set(min(1.0, worker_busy[ident] / elapsed))
    return results


def _maybe_straggle(section: str, key: str) -> None:
    """The ``parallel.slow_task`` fault point: stall this task (wall time).

    The decision draws from the task's fault scope, so which keys stall
    is deterministic; the stall itself is a real ``time.sleep``, proving
    in tests that one hung task cannot wedge the rest of the pool.
    """
    if faults.should_inject("parallel.slow_task", section=section, key=key):
        time.sleep(SLOW_TASK_SECONDS)
