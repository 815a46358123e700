"""repro.parallel — deterministic worker-pool execution.

See :mod:`repro.parallel.pool` for the design rules (stable task keys,
task-order merge) and :mod:`repro.common.task` for the one per-task
context every kind of ambient state rides on.  The hot paths — config
generation, phased deployment, ConfMon sweeps — all fan out through
:func:`run_tasks`.
"""

from repro.parallel.pool import (
    SLOW_TASK_SECONDS,
    WORKERS_ENV,
    TaskClock,
    TaskContext,
    TaskResult,
    configured_workers,
    current_task,
    raise_first_error,
    run_tasks,
    set_workers,
    task_clock,
    workers,
)

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
