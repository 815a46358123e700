"""Edge-case tests for the store: replication records, index fast paths."""

import pytest

from repro.common.errors import IntegrityError, TransactionError, ValidationError
from repro.fbnet.durability import store_digest
from repro.fbnet.models import (
    NetworkSwitch,
    PhysicalInterface,
    Pop,
    RackProfile,
    Region,
)
from repro.fbnet.query import And, Expr, Op
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ChangeOp, ChangeRecord, ObjectStore


class TestApplyRecordEdges:
    def test_update_for_missing_object_raises(self, store):
        record = ChangeRecord(
            txn_id=1, op=ChangeOp.UPDATE, model="Region", obj_id=99,
            values={"name": "ghost"},
        )
        with pytest.raises(TransactionError, match="missing"):
            store.apply_record(record)

    def test_delete_for_missing_object_raises(self, store):
        # Symmetric with UPDATE: a delete for a row this store never had
        # means it diverged from the journal source — surfaced, not masked.
        from repro import obs

        record = ChangeRecord(
            txn_id=1, op=ChangeOp.DELETE, model="Region", obj_id=99,
        )
        with pytest.raises(TransactionError, match="missing"):
            store.apply_record(record)
        assert (
            obs.counter(
                "store.replication.divergence", store=store.name, op="delete"
            ).value
            == 1
        )

    def test_create_over_live_object_raises(self, store):
        # The third direction: replacing the row would leave the old row's
        # unique-index entry behind, a phantom holder of its name.
        from repro import obs

        store.apply_record(
            ChangeRecord(
                txn_id=1, op=ChangeOp.CREATE, model="Region", obj_id=1,
                values={"name": "na-east"},
            )
        )
        again = ChangeRecord(
            txn_id=2, op=ChangeOp.CREATE, model="Region", obj_id=1,
            values={"name": "eu-west"},
        )
        with pytest.raises(TransactionError, match="live"):
            store.apply_record(again)
        assert (
            obs.counter(
                "store.replication.divergence", store=store.name, op="create"
            ).value
            == 1
        )
        assert [r.name for r in store.all(Region)] == ["na-east"]
        assert store.journal_position == 1
        store.create(Region, name="eu-west")  # no phantom holder either way

    def test_replicated_unique_index_works(self, store):
        replica = ObjectStore("replica")
        store.create(Region, name="r1")
        for record in store.journal:
            replica.apply_record(record)
        # The replica's unique index was built by apply_record: a clashing
        # local write is rejected, and indexed lookups work.
        with pytest.raises(Exception):
            replica.create(Region, name="r1")
        assert replica.first(Region, Expr("name", Op.EQUAL, "r1")) is not None


class TestIndexedFilterFastPath:
    """The fast path must agree with brute-force matching exactly."""

    @pytest.fixture
    def rig(self, store, env):
        devices = [
            store.create(
                NetworkSwitch, name=f"psw{i}",
                hardware_profile=env.profiles["Switch_Vendor2"],
            )
            for i in range(3)
        ]
        return devices

    def test_unique_field_lookup(self, store, env, rig):
        found = store.filter(NetworkSwitch, Expr("name", Op.EQUAL, "psw1"))
        assert [d.name for d in found] == ["psw1"]
        assert store.filter(NetworkSwitch, Expr("name", Op.EQUAL, "nope")) == []

    def test_unique_lookup_respects_subtree(self, store, env, rig):
        from repro.fbnet.models import PeeringRouter

        # psw1 exists in the Device family, but not as a PeeringRouter.
        assert store.first(PeeringRouter, Expr("name", Op.EQUAL, "psw1")) is None

    def test_unique_lookup_list_rvalue(self, store, env, rig):
        found = store.filter(
            NetworkSwitch, Expr("name", Op.EQUAL, ["psw0", "psw2", "ghost"])
        )
        assert [d.name for d in found] == ["psw0", "psw2"]

    def test_fk_lookup_with_list(self, store, env, rig):
        lcm = env.profiles["Switch_Vendor2"].related("linecard_model")
        from repro.fbnet.models import Linecard

        lcs = [
            store.create(Linecard, device=d, slot=1, linecard_model=lcm)
            for d in rig
        ]
        found = store.filter(
            Linecard, Expr("device", Op.EQUAL, [rig[0].id, rig[2].id])
        )
        assert {lc.device_id for lc in found} == {rig[0].id, rig[2].id}

    def test_non_equal_ops_fall_back_to_scan(self, store, env, rig):
        found = store.filter(NetworkSwitch, Expr("name", Op.REGEXP, r"psw[02]"))
        assert len(found) == 2

    def test_composed_query_falls_back(self, store, env, rig):
        query = And(
            Expr("name", Op.EQUAL, "psw1"),
            Expr("name", Op.STARTSWITH, "psw"),
        )
        assert len(store.filter(NetworkSwitch, query)) == 1

    def test_plain_value_field_falls_back(self, store, env, rig):
        lcm = env.profiles["Switch_Vendor2"].related("linecard_model")
        from repro.fbnet.models import Linecard

        store.create(Linecard, device=rig[0], slot=4, linecard_model=lcm)
        found = store.filter(Linecard, Expr("slot", Op.EQUAL, 4))
        assert len(found) == 1

    def test_fast_path_after_update(self, store, env, rig):
        store.update(rig[0], name="renamed")
        assert store.first(NetworkSwitch, Expr("name", Op.EQUAL, "psw0")) is None
        assert store.first(
            NetworkSwitch, Expr("name", Op.EQUAL, "renamed")
        ) is rig[0]

    def test_fast_path_after_rollback(self, store, env, rig):
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update(rig[0], name="doomed")
                raise RuntimeError("abort")
        assert store.first(NetworkSwitch, Expr("name", Op.EQUAL, "psw0")) is rig[0]
        assert store.first(NetworkSwitch, Expr("name", Op.EQUAL, "doomed")) is None

    def test_fast_path_after_delete(self, store, env, rig):
        store.delete(rig[1])
        assert store.first(NetworkSwitch, Expr("name", Op.EQUAL, "psw1")) is None
        # The freed name is reusable.
        store.create(
            NetworkSwitch, name="psw1",
            hardware_profile=env.profiles["Switch_Vendor2"],
        )


class TestRejectedUpdateLeavesTheRowAlone:
    """``update(obj, **values)`` used to assign field by field, so a bad
    name or value *after* a good one left the live stored row mutated with
    no journal record, no undo entry and stale indexes."""

    @pytest.fixture(params=["plain", "sharded"])
    def any_store(self, request):
        return ObjectStore() if request.param == "plain" else ShardedObjectStore(shards=4)

    @pytest.mark.parametrize(
        "values, error",
        [
            ({"downlinks_per_rack": 8, "no_such_field": 1}, IntegrityError),
            ({"name": "zzz", "downlinks_per_rack": "x"}, ValidationError),
            ({"name": "zzz", "downlinks_per_rack": 0}, ValidationError),  # below min
            ({"name": "r1"}, IntegrityError),  # clean values, rejected by save()
        ],
    )
    def test_row_journal_indexes_and_digest_unchanged(self, any_store, values, error):
        store = any_store
        store.create(RackProfile, name="r1", downlinks_per_rack=2)
        rack = store.create(RackProfile, name="r2", downlinks_per_rack=4)
        before = (rack.clone_values(), store.journal_position, store_digest(store))

        with pytest.raises(error):
            store.update(rack, **values)

        assert (rack.clone_values(), store.journal_position, store_digest(store)) == before
        by_name = lambda name: store.first(RackProfile, Expr("name", Op.EQUAL, name))
        assert by_name("r2") is rack and by_name("zzz") is None
        assert store.filter(RackProfile, Expr("downlinks_per_rack", Op.EQUAL, 8)) == []
        # Nothing is left half-done: the next good update journals exactly
        # what it changed, and a store replaying the journal agrees.
        store.update(rack, downlinks_per_rack=8)
        assert store.journal[-1].changed_fields == ("downlinks_per_rack",)
        replica = ObjectStore()
        for record in store.journal:
            replica.apply_record(record)
        assert store_digest(replica) == store_digest(store)

    def test_rejected_update_inside_a_transaction_rolls_back_nothing_extra(self, any_store):
        store = any_store
        rack = store.create(RackProfile, name="r2", downlinks_per_rack=4)
        with store.transaction():
            store.update(rack, downlinks_per_rack=6)
            with pytest.raises(IntegrityError):
                store.update(rack, downlinks_per_rack=8, no_such_field=1)
        assert rack.downlinks_per_rack == 6
        assert store.journal[-1].values["downlinks_per_rack"] == 6
