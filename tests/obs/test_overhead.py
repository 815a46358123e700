"""Guard: with ``obs.disable()`` the instrumented paths stay no-ops.

The acceptance bar for the telemetry layer is that turning it off
restores seed behaviour: identical results from the instrumented code
paths, zero recorded state, and per-call costs that are vanishingly
small next to the work being instrumented.  Left on — the default, and
what the layer ledger measures — a labelled call site must stay a dict
probe, since the store makes several per row and per query.
"""

import time

import pytest

from repro import obs
from repro.fbnet.models import NetworkDomain, Pop, Region
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore


def _run_store_workload() -> tuple[dict[str, int], int]:
    """A little design-like workload; returns (table sizes, journal length)."""
    store = ObjectStore()
    with store.transaction():
        region = store.create(Region, name="r1")
        for i in range(20):
            store.create(
                Pop, name=f"pop{i:02d}", region=region, domain=NetworkDomain.POP
            )
    for i in range(0, 20, 2):
        pop = store.first(Pop, Expr("name", Op.EQUAL, f"pop{i:02d}"))
        store.update(pop, peering_capacity_gbps=100)
    with pytest.raises(RuntimeError):
        with store.transaction():
            store.create(
                Pop, name="doomed", region=region, domain=NetworkDomain.POP
            )
            raise RuntimeError("rollback")
    store.filter(Pop, Expr("region", Op.EQUAL, region.id))
    return store.table_sizes(), store.journal_position


class TestDisabledParity:
    def test_disabled_records_no_metrics_or_spans(self):
        obs.disable()
        _run_store_workload()
        assert obs.registry().series() == []
        assert len(obs.tracer().sink) == 0
        assert obs.snapshot() == {
            "metrics": {"counters": [], "gauges": [], "histograms": []},
            "spans": [],
        }

    def test_disabled_and_enabled_produce_identical_store_state(self):
        obs.disable()
        sizes_off, journal_off = _run_store_workload()
        obs.enable()
        sizes_on, journal_on = _run_store_workload()
        assert sizes_off == sizes_on
        assert journal_off == journal_on
        # ... and the enabled run did record the workload.
        assert obs.registry().get("store.txn", store="fbnet", status="commit")
        assert obs.registry().get("store.txn", store="fbnet", status="rollback")

    def test_disabled_factories_return_shared_noop(self):
        obs.disable()
        first = obs.counter("store.txn", store="x")
        second = obs.histogram("rpc.latency")
        third = obs.span("robotron.anything")
        assert first is second is third  # the one NOOP object, no allocations

    def test_disabled_call_sites_are_cheap(self):
        """50k disabled metric touches must stay far under tier-1 noise."""
        obs.disable()
        start = time.perf_counter()
        for _ in range(50_000):
            obs.counter("store.txn", store="fbnet").inc()
        elapsed = time.perf_counter() - start
        # ~0.4us/op observed; 20us/op is two orders of magnitude of slack.
        assert elapsed < 1.0, f"disabled counter path too slow: {elapsed:.3f}s"


class TestEnabledCost:
    def test_enabled_labelled_call_sites_are_cheap(self):
        """50k labelled counter touches, as the store spells them."""
        obs.enable()
        start = time.perf_counter()
        for _ in range(50_000):
            obs.counter("store.rows", store="fbnet", op="create").inc()
        elapsed = time.perf_counter() - start
        assert obs.counter("store.rows", store="fbnet", op="create").value == 50_000
        # ~1.2us/op observed (2.9 before the call-site spelling memo);
        # 20us/op is the same generous slack as the disabled guard.
        assert elapsed < 1.0, f"enabled counter path too slow: {elapsed:.3f}s"
