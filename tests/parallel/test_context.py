"""Worker-count invariance of every kind of ambient task state, in one place.

One batch exercises everything a :class:`repro.common.task.TaskContext`
carries — fault scope, flight buffer + change id + suppressed flag, task
clock, read-set, span parent — and must merge to the same state at any
pool size, including the ``cancel_on_error`` discard.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro import faults, obs
from repro.faults import FaultPlan
from repro.fbnet.changelog import ReadSet
from repro.fbnet.models import Region
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.obs import flight
from repro.parallel import run_tasks, task_clock

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (1, 2, 4, 8)
TASKS = 6
FAILING = 2  # index of the task that raises in the cancel_on_error batch
KINDS = ("faults", "flight", "journal", "clock", "reads", "span_parents")


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


def run_batch(count: int, *, cancel: bool = False, suppress: bool = False) -> dict:
    """Run the batch at ``count`` workers; return the merged state by kind."""
    obs.reset()
    shared = ObjectStore()
    for index in range(TASKS):
        shared.create(Region, name=f"r{index}")
    # The store is single-writer, so each task writes to a store of its own.
    private = [ObjectStore(name=f"p{index}") for index in range(TASKS)]
    clock = FakeClock()
    plan = FaultPlan(seed=7)
    plan.inject("ctx.flaky", probability=0.5)

    def work(index: int) -> None:
        for call in range(4):
            faults.should_inject("ctx.flaky", call=call)
        task_clock(None).advance(1.0 + index)
        shared.filter(Region, Expr("name", Op.EQUAL, f"r{index}"))
        with obs.span("ctx.task", index=index):
            flight.record("confmon.check", phase="monitoring", device=f"d{index}")
        private[index].create(Region, name="written")
        if cancel and index == FAILING:
            raise RuntimeError("boom")

    enclosing = ReadSet()
    with plan.installed(), flight.change_context("ctx batch"):
        with shared.track_reads(enclosing), obs.span("ctx.coordinator") as outer:
            with flight.suppressed() if suppress else nullcontext():
                results = run_tasks(
                    [(f"k{i}", lambda i=i: work(i)) for i in range(TASKS)],
                    section="ctx", workers=count, clock=clock,
                    cancel_on_error=cancel,
                )
    task_spans = obs.tracer().sink.find("ctx.task")
    merged = [i for i, result in enumerate(results) if not result.cancelled]
    return {
        "merged": merged,
        "faults": (
            list(plan.injections),
            [(spec.seen, spec.injected) for spec in plan.specs],
        ),
        "flight": flight.deterministic_dump(),
        "journal": [
            [record.change_id for record in private[i].journal_since(0)]
            for i in merged
        ],
        "clock": clock.now,
        "reads": enclosing,
        "span_parents": (
            {span.attributes["index"] for span in task_spans if
             span.parent_id == outer.span_id},
            {span.attributes["index"] for span in task_spans if
             span.parent_id != outer.span_id},
        ),
    }


@pytest.fixture(scope="module")
def serial() -> dict:
    return run_batch(1)


@pytest.fixture(scope="module")
def serial_cancelled() -> dict:
    return run_batch(1, cancel=True)


@pytest.mark.parametrize("count", WORKER_COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_merged_state_is_independent_of_worker_count(serial, kind, count):
    assert run_batch(count)[kind] == serial[kind]


@pytest.mark.parametrize("count", WORKER_COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_cancelled_tasks_contribute_nothing(serial_cancelled, kind, count):
    state = run_batch(count, cancel=True)
    assert state["merged"] == list(range(FAILING + 1))
    if kind == "span_parents":
        # Spans are sunk as they finish, not merged: a task that started
        # before the cancellation still leaves one.  None may be a root.
        under, elsewhere = state[kind]
        assert under >= serial_cancelled[kind][0] and elsewhere == set()
    else:
        assert state[kind] == serial_cancelled[kind]


def test_the_batch_exercises_every_kind(serial, serial_cancelled):
    """Pins the absolute values the equalities above compare."""
    injections, counters = serial["faults"]
    assert injections and counters[0][1] == len(injections)
    kinds = [event["kind"] for event in serial["flight"]["events"]]
    assert kinds.count("confmon.check") == TASKS
    assert {e["change_id"] for e in serial["flight"]["events"]} == {"chg-000001"}
    assert serial["journal"] == [["chg-000001"]] * TASKS
    assert serial["clock"] == 100.0 + TASKS  # the batch maximum, not the sum
    assert serial["reads"].fields["Region"]["name"] == {
        f"r{i}" for i in range(TASKS)
    }
    assert serial["span_parents"] == (set(range(TASKS)), set())
    assert "span_id" not in serial["flight"]["events"][0]
    # The discard: only the tasks up to the first-keyed error are merged.
    assert serial_cancelled["reads"].fields["Region"]["name"] == {
        f"r{i}" for i in range(FAILING + 1)
    }
    assert serial_cancelled["clock"] == 100.0 + FAILING + 1
    assert len(serial_cancelled["flight"]["events"]) < len(
        serial["flight"]["events"]
    )


@pytest.mark.parametrize("count", (1, 2, 4))
def test_suppressed_crosses_the_pool(count):
    state = run_batch(count, suppress=True)
    # Only the coordinator's change.open / change.close: no task event
    # was recorded and no journal row was stamped.
    assert [e["kind"] for e in state["flight"]["events"]] == [
        "change.open", "change.close",
    ]
    assert state["journal"] == [[""]] * TASKS
