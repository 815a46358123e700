"""Tests for monitoring storage backends: tsdb retention, Derived-model writes."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.fbnet.models import (
    AdminStatus,
    DerivedBgpSession,
    DerivedCircuit,
    DerivedDevice,
    DerivedInterface,
    DerivedRunningConfig,
    OperStatus,
)
from repro.fbnet.query import And, Expr, Op
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore
from repro.monitoring.backends import DerivedModelBackend, TimeSeriesBackend
from repro.simulation.clock import EventScheduler


def _system_record(cpu: float) -> dict:
    return {
        "device": "d1",
        "data_type": "system",
        "payload": {"cpu": cpu, "memory": 40.0, "uptime": 123.0},
    }


class TestTimeSeriesRetention:
    def test_default_window_is_bounded(self):
        backend = TimeSeriesBackend()
        assert backend.max_points_per_series == 4096

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesBackend(max_points_per_series=0)

    def test_eviction_drops_oldest_first(self):
        backend = TimeSeriesBackend(max_points_per_series=3)
        for i in range(5):
            backend.store(_system_record(cpu=float(i)), timestamp=float(i))
        points = list(backend.series[("d1", "cpu")])
        # Points 0 and 1 were evicted; order of survivors is preserved.
        assert points == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]

    def test_latest_reflects_newest_point_after_eviction(self):
        backend = TimeSeriesBackend(max_points_per_series=2)
        for i in range(10):
            backend.store(_system_record(cpu=float(i)), timestamp=float(i))
        assert backend.latest("d1", "cpu") == 9.0

    def test_each_series_evicts_independently(self):
        backend = TimeSeriesBackend(max_points_per_series=3)
        for i in range(5):
            backend.store(_system_record(cpu=float(i)), timestamp=float(i))
        # cpu/memory/uptime all came from the same records: same bound.
        assert len(backend.series[("d1", "cpu")]) == 3
        assert len(backend.series[("d1", "memory")]) == 3
        backend.series[("d2", "cpu")].append((0.0, 1.0))
        assert len(backend.series[("d2", "cpu")]) == 1

    def test_unbounded_enough_window_keeps_everything(self):
        backend = TimeSeriesBackend(max_points_per_series=100)
        for i in range(50):
            backend.store(_system_record(cpu=float(i)), timestamp=float(i))
        assert len(backend.series[("d1", "cpu")]) == 50


# ---------------------------------------------------------------------------
# DerivedModelBackend: one payload, one read, one transaction
# ---------------------------------------------------------------------------


class PerRowReference:
    """The Derived backend as it was written row by row: one ``first`` query
    and one implicit transaction a row.  What the batched backend must leave
    behind, journal record for journal record (``txn_id`` aside)."""

    def __init__(self, store):
        self.store = store

    def __call__(self, record: dict, timestamp: float) -> None:
        device, payload = record["device"], record["payload"]
        getattr(self, record["data_type"].replace("-", "_"))(device, payload, timestamp)

    def find(self, model, **key):
        tests = [Expr(name, Op.EQUAL, value) for name, value in key.items()]
        return self.store.first(model, tests[0] if len(tests) == 1 else And(*tests))

    def upsert(self, model, key, timestamp, **values):
        existing = self.find(model, **key)
        values = {**key, **values, "collected_at": timestamp}
        if existing is None:
            self.store.create(model, **values)
        else:
            self.store.update(existing, **values)

    def system(self, device, payload, timestamp):
        self.upsert(
            DerivedDevice, {"name": device}, timestamp,
            uptime_seconds=payload["uptime"],
            cpu_utilization=payload["cpu"],
            memory_utilization=payload["memory"],
        )

    def interfaces(self, device, payload, timestamp):
        for row in payload:
            self.upsert(
                DerivedInterface, {"device_name": device, "name": row["name"]}, timestamp,
                oper_status=OperStatus(row["oper_status"]),
                admin_status=AdminStatus(row.get("admin_status", "enabled")),
            )

    def lldp(self, device, payload, timestamp):
        for row in payload:
            a_dev, a_if = device, row["local_interface"]
            z_dev, z_if = row["neighbor_device"], row["neighbor_interface"]
            mirror = self.find(DerivedCircuit, a_device_name=z_dev, a_interface_name=z_if)
            if mirror and (mirror.z_device_name, mirror.z_interface_name) == (a_dev, a_if):
                self.store.update(mirror, collected_at=timestamp)
                continue
            self.upsert(
                DerivedCircuit, {"a_device_name": a_dev, "a_interface_name": a_if}, timestamp,
                z_device_name=z_dev, z_interface_name=z_if,
            )

    def bgp(self, device, payload, timestamp):
        for row in payload:
            self.upsert(
                DerivedBgpSession, {"device_name": device, "peer_ip": row["peer_ip"]},
                timestamp, state=row["state"],
            )

    def running_config(self, device, payload, timestamp):
        self.upsert(
            DerivedRunningConfig, {"device_name": device}, timestamp,
            config_hash=hashlib.sha256(payload.encode()).hexdigest(),
            config_text=payload,
        )


DEVICES = ["d1", "d2", "d3"]
PORTS = ["et1", "et2", "et3"]
DERIVED = [DerivedDevice, DerivedInterface, DerivedCircuit, DerivedBgpSession, DerivedRunningConfig]
STORES = {
    "plain": lambda: ObjectStore(name="plain"),
    "four-shards": lambda: ShardedObjectStore(shards=4, name="four-shards"),
}

# Three devices and three ports: repeated keys inside a payload, mirror pairs
# across payloads and a device that is its own neighbour all come up often.
device, port = st.sampled_from(DEVICES), st.sampled_from(PORTS)
payloads = st.one_of(
    st.fixed_dictionaries({
        "data_type": st.just("system"),
        "payload": st.fixed_dictionaries({
            "cpu": st.sampled_from([0.1, 0.5]),
            "memory": st.sampled_from([0.2, 0.7]),
            "uptime": st.sampled_from([10.0, 20.0]),
        }),
    }),
    st.fixed_dictionaries({
        "data_type": st.just("interfaces"),
        "payload": st.lists(st.fixed_dictionaries(
            {"name": port, "oper_status": st.sampled_from(["up", "down", "unknown"])},
            optional={"admin_status": st.sampled_from(["enabled", "disabled"])},
        ), max_size=5),
    }),
    st.fixed_dictionaries({
        "data_type": st.just("lldp"),
        "payload": st.lists(st.fixed_dictionaries({
            "local_interface": port, "neighbor_device": device, "neighbor_interface": port,
        }), max_size=5),
    }),
    st.fixed_dictionaries({
        "data_type": st.just("bgp"),
        "payload": st.lists(st.fixed_dictionaries({
            "peer_ip": st.sampled_from(["10.0.0.1", "10.0.0.2"]),
            "state": st.sampled_from(["idle", "active", "established"]),
        }), max_size=4),
    }),
    st.fixed_dictionaries({
        "data_type": st.just("running-config"),
        "payload": st.sampled_from(["hostname a\n", "hostname b\n"]),
    }),
)
# A step stores a payload from a device at a time (repeats included, so a
# row may be rewritten unchanged), or deletes the n-th row of a Derived model.
steps = st.lists(st.one_of(
    st.tuples(st.just("store"), device, payloads, st.sampled_from([1.0, 2.0, 3.0])),
    st.tuples(st.just("delete"), st.sampled_from(DERIVED), st.integers(0, 10)),
), max_size=25)


def tables(store) -> dict:
    return {
        model.__name__: [(row.id, row.clone_values()) for row in store.all(model)]
        for model in DERIVED
    }


def without_txn(records) -> list:
    return [replace(record, txn_id=0) for record in records]


class TestDerivedModelBackend:
    @pytest.mark.parametrize("kind", sorted(STORES))
    @settings(max_examples=80, deadline=None)
    @given(steps=steps)
    def test_batched_payload_equals_per_row_reference(self, kind, steps):
        batched, reference = STORES[kind](), STORES[kind]()
        backend = DerivedModelBackend(batched, EventScheduler().clock)
        per_row = PerRowReference(reference)
        for step in steps:
            if step[0] == "delete":
                _, model, pick = step
                for store in (batched, reference):
                    rows = store.all(model)
                    if rows:
                        store.delete(rows[pick % len(rows)])
                continue
            _, name, record, timestamp = step
            record = {**record, "device": name}
            position = batched.journal_position
            backend.store(record, timestamp)
            per_row(record, timestamp)
            # One observation, one transaction — and a new one.
            txns = {r.txn_id for r in batched.journal_since(position)}
            assert len(txns) == (1 if record["payload"] else 0)
            assert txns.isdisjoint(r.txn_id for r in batched.journal_since(0, position))
            assert tables(batched) == tables(reference)
            assert without_txn(batched.journal) == without_txn(reference.journal)

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_a_rejected_row_leaves_the_payload_unwritten(self, kind):
        store = STORES[kind]()
        backend = DerivedModelBackend(store, EventScheduler().clock)
        peers = [{"peer_ip": f"10.0.0.{i}", "state": "idle"} for i in range(3)]
        backend.store({"device": "d1", "data_type": "bgp", "payload": peers}, 1.0)
        before, position = tables(store), store.journal_position
        # Rows 0-2 would update, row 3 create; row 4's state fails Field.clean.
        payload = [{**peer, "state": "established"} for peer in peers]
        payload += [{"peer_ip": "10.0.0.3", "state": "active"}, {"peer_ip": "10.0.0.4", "state": 42}]
        with pytest.raises(ValidationError):
            backend.store({"device": "d1", "data_type": "bgp", "payload": payload}, 2.0)
        assert tables(store) == before
        assert store.journal_position == position
        assert [s.state for s in store.all(DerivedBgpSession)] == ["idle"] * 3

    def test_an_outer_transaction_is_joined(self):
        store = ObjectStore()
        backend = DerivedModelBackend(store, EventScheduler().clock)
        rows = [{"name": "et1", "oper_status": "up"}, {"name": "et2", "oper_status": "down"}]
        with store.transaction() as txn_id:
            backend.store({"device": "d1", "data_type": "interfaces", "payload": rows}, 1.0)
            backend.store({"device": "d2", "data_type": "interfaces", "payload": rows}, 1.0)
        assert {r.txn_id for r in store.journal} == {txn_id}
        assert len(store.journal) == 4
