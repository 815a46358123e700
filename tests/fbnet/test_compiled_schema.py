"""The compiled form equals the declared one.

What a model declares is resolved once — ``ModelOptions`` for what the
model alone fixes, ``ModelRegistry.memo`` for what the registered set
fixes (families, reverse relations, the planner's choice of index, what a
dotted path is on a model), one
``_Slots`` per (store, model), one spelling memo in the metrics registry —
and the store's read, write and replay paths consume the resolved form.
The derivations those paths used to run per row and per query live on
here, as reference functions, and every resolved fact is held to them.
"""

from __future__ import annotations

import json
import sys
import threading
from enum import Enum
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import Robotron, obs, seed_environment
from repro.common.errors import IntegrityError, QueryError
from repro.fbnet import durability
from repro.fbnet.api import ReadApi
from repro.fbnet.base import Model, ModelGroup, model_registry
from repro.fbnet.changelog import query_models
from repro.fbnet.fields import CharField, ForeignKey, OnDelete
from repro.fbnet.models import (
    Circuit,
    ClusterGeneration,
    DerivedInterface,
    Device,
    DrainState,
    PeeringRouter,
    RackProfile,
    Region,
)
from repro.fbnet.query import Expr, Op, Query, fold_equalities, path_plan, plan
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ChangeOp, ChangeRecord, ObjectStore
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, _label_key
from tests.sharding.test_planner import (
    MODELS,
    populate,
    readset_shape,
    realise,
    tree_shape,
)

# ---------------------------------------------------------------------------
# The old derivations, kept as the reference
# ---------------------------------------------------------------------------


def reference_family_root(model: type[Model]) -> str:
    """``ObjectStore._family_root`` as it was: an MRO walk per call."""
    root = model
    for klass in model.__mro__[1:]:
        meta = getattr(klass, "_meta", None)
        if meta is not None and getattr(meta, "abstract", False) and klass is not Model:
            root = klass
    return root.__name__


def reference_family(model: type[Model]) -> list[type[Model]]:
    """The ``issubclass`` sweep ``plan``/``_resolve``/``_iter_rows`` each ran."""
    return [c for c in model_registry.all() if issubclass(c, model)]


def reference_unique_fields(model: type[Model]) -> list[str]:
    """The ``fld.unique`` scan of ``_index``/``_unindex_values``/``_check_unique``."""
    return [name for name, fld in model._meta.fields.items() if fld.unique]


def reference_plan(store: ObjectStore, model: type[Model], query: Query):
    """``query.plan`` with the index chosen per call, per concrete model."""
    key = store._hashable

    def index_ids(concrete, wanted):
        if any(value is None for values in wanted.values() for value in values):
            return None
        meta = concrete._meta
        if len(wanted) == 1:
            ((name, values),) = wanted.items()
            if name in meta.fk_fields:
                if not all(isinstance(value, int) for value in values):
                    return None
                buckets = store._reverse_index.get((concrete.__name__, name), {})
                return {i for value in values for i in buckets.get(value, ())}
            if meta.fields[name].unique:
                held = store._unique_index.get((reference_family_root(concrete), name), {})
                return {held[k] for k in map(key, values) if k in held}
        for group in meta.unique_together:
            if wanted.keys() >= set(group):
                held = store._unique_together_index.get((concrete.__name__, group), {})
                combos = product(*([key(v) for v in wanted[name]] for name in group))
                return {held[combo] for combo in combos if combo in held}
        return None

    def probe(exprs):
        wanted = {expr.field: expr.rvalues for expr in exprs}
        found = {}
        for concrete in reference_family(model):
            if wanted.keys() <= concrete._meta.fields.keys():
                ids = index_ids(concrete, wanted)
                if ids is None:
                    return None
                found[concrete.__name__] = ids
        return [found] if found else None

    answers = fold_equalities(query, lambda expr: probe([expr]), probe)
    if answers is None:
        return None
    candidates: dict[str, set[int]] = {}
    for found in answers:
        for name, ids in found.items():
            candidates.setdefault(name, set()).update(ids)
    return candidates


def abstract_bases() -> list[type[Model]]:
    seen: dict[str, type[Model]] = {}
    for model in model_registry.all():
        for klass in model.__mro__[1:]:
            if isinstance(getattr(klass, "_meta", None), type(model._meta)) and klass is not Model:
                seen.setdefault(klass.__name__, klass)
    return [klass for klass in seen.values() if klass._meta.abstract]


@pytest.fixture
def runtime_models():
    """Models a test registers; unregistered again afterwards, so the
    process-wide registry the rest of the suite sees is as it was."""
    registered: list[type[Model]] = []
    yield registered
    for model in registered:
        del model_registry._models[model.__name__]
    model_registry.memo = {}


# ---------------------------------------------------------------------------
# Schema facts
# ---------------------------------------------------------------------------


class TestResolvedFactsEqualDeclaredOnes:
    def test_every_registered_model_and_abstract_base(self):
        models = model_registry.all() + abstract_bases()
        assert len(models) > len(model_registry.all()) >= 30
        for model in models:
            meta = model._meta
            assert meta.family_root.__name__ == reference_family_root(model), model
            assert list(meta.unique_fields) == reference_unique_fields(model), model
            assert list(meta.field_names) == list(meta.fields), model
            assert list(model_registry.family(model)) == reference_family(model), model

    def test_family_is_remembered_until_a_model_registers(self, runtime_models):
        before = model_registry.family(Device)
        assert model_registry.family(Device) is before

        class LabSwitch(Device):
            class Meta:
                group = ModelGroup.DESIRED

            bench = CharField(default="", unique=True)

        runtime_models.append(LabSwitch)
        after = model_registry.family(Device)
        assert list(after) == [*before, LabSwitch] == reference_family(Device)
        assert model_registry.family(LabSwitch) == (LabSwitch,)
        assert LabSwitch._meta.family_root is Device
        assert LabSwitch._meta.unique_fields == (*Device._meta.unique_fields, "bench")
        # Reverse relations are derived from the registered set too: the
        # profile every Device points at now lists the new subclass.
        profile = LabSwitch._meta.fk_fields["hardware_profile"].to
        sources = {src for src, _fk in model_registry.reverse_relations(profile).values()}
        assert LabSwitch in sources

    def test_a_path_plan_is_remembered_until_a_model_registers(self, runtime_models):
        store = ObjectStore()
        region = store.create(Region, name="r1")
        path = "lab_notes.text"
        noted = Expr(path, Op.EQUAL, "calibrated")
        before = path_plan(Region, path)
        assert path_plan(Region, path) is before
        assert (before.multi, before.models, before.read) == (False, frozenset(), None)
        with pytest.raises(QueryError, match="unknown field 'lab_notes'"):
            store.filter(Region, noted)

        class LabNote(Model):
            class Meta:
                group = ModelGroup.DESIRED

            region = ForeignKey(Region, on_delete=OnDelete.CASCADE, related_name="lab_notes")
            text = CharField()

        runtime_models.append(LabNote)
        # The new model adds a reverse relation to Region: what the path
        # *is* changed, so the plan classified against the old set is gone.
        after = path_plan(Region, path)
        assert after is not before
        assert (after.multi, after.models) == (True, frozenset({"LabNote"}))
        assert query_models(Region, noted) == {"Region", "LabNote"}
        assert store.filter(Region, noted) == []
        for text in ("calibrated", "racked"):
            store.create(LabNote, region=region, text=text)
        assert store.filter(Region, noted) == [region]
        assert ReadApi(store).get("Region", [path]) == [
            {"id": region.id, path: ["calibrated", "racked"]}
        ]

    @pytest.mark.parametrize("make_store", [ObjectStore, lambda: ShardedObjectStore(shards=4)])
    def test_a_runtime_subclass_joins_already_memoised_plans(self, make_store, runtime_models):
        store = make_store()
        env = seed_environment(store)
        profile = env.profiles["Router_Vendor1"]
        store.create(PeeringRouter, name="pr1", hardware_profile=profile, pop=env.pops["pop01"])
        by_name = Expr("name", Op.EQUAL, ["pr1", "lab1"])
        by_profile = Expr("hardware_profile", Op.EQUAL, profile.id)
        # Memoise both shapes, and resolve, against the registry as it is.
        assert plan(store, Device, by_name) == reference_plan(store, Device, by_name)
        assert plan(store, Device, by_profile) == reference_plan(store, Device, by_profile)
        assert [d.name for d in store.filter(Device, by_name)] == ["pr1"]

        class LabRouter(Device):
            class Meta:
                group = ModelGroup.DESIRED

        runtime_models.append(LabRouter)
        lab = store.create(LabRouter, name="lab1", hardware_profile=profile)
        for query in (by_name, by_profile):
            candidates = plan(store, Device, query)
            assert candidates == reference_plan(store, Device, query)
            assert lab.id in candidates["LabRouter"]
        assert [d.name for d in store.filter(Device, by_name)] == ["pr1", "lab1"]
        assert store.get(Device, lab.id) is lab
        assert lab in store.all(Device)
        # The family-wide unique index covers the newcomer as well.
        with pytest.raises(IntegrityError, match="unique"):
            store.create(LabRouter, name="pr1", hardware_profile=profile)


# ---------------------------------------------------------------------------
# The planner's memo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seeded():
    return [populate(ObjectStore(name="plain")), populate(ShardedObjectStore(shards=4))]


class TestMemoisedPlanEqualsPerCallChoice:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(model_pick=st.integers(0, len(MODELS) - 1), shape=tree_shape)
    def test_cold_warm_and_reference_agree(self, seeded, model_pick, shape):
        model = MODELS[model_pick]
        try:
            query = realise(shape, seeded[0], model)
            [query.matches(row) for row in seeded[0].all(model)]
        except QueryError:
            assume(False)
        for store in seeded:
            expected = reference_plan(store, model, query)
            model_registry.memo = {}  # cold: every shape is decided afresh
            assert plan(store, model, query) == expected
            with store.track_reads() as cold_reads:
                cold = store.filter(model, query)
            assert model_registry.memo  # the decisions were remembered ...
            assert plan(store, model, query) == expected  # ... and are the same
            with store.track_reads() as warm_reads:
                warm = store.filter(model, query)
            assert cold == warm == [r for r in store.all(model) if query.matches(r)]
            assert readset_shape(cold_reads) == readset_shape(warm_reads)

    def test_a_repeat_shape_decides_nothing_again(self, seeded, monkeypatch):
        from repro.fbnet import query as query_module

        store = seeded[0]
        calls = []
        real = query_module._access_paths
        monkeypatch.setattr(
            query_module, "_access_paths", lambda *a: calls.append(a) or real(*a)
        )
        model_registry.memo = {}
        for name in ("pop01", "pop02", "nope", "pop01"):
            store.first(MODELS[2], Expr("name", Op.EQUAL, name))
        assert len(calls) == 1


class TestMemosFilledByManyTasksAtOnce:
    """Pool tasks read the memos concurrently: a fill may happen twice,
    but every reader must see a whole entry and one series per spelling."""

    def test_cold_memos_under_eight_threads(self, seeded):
        store = seeded[1]
        device = store.all(PeeringRouter)[0]
        queries = [
            (Device, Expr("name", Op.EQUAL, device.name)),
            (Device, Expr("hardware_profile", Op.EQUAL, device.hardware_profile_id)),
            (DerivedInterface, Expr("device_name", Op.EQUAL, "psw01") & Expr("name", Op.EQUAL, "et1/1")),
            (PeeringRouter, Expr("name", Op.STARTSWITH, "p")),
        ]
        expected = [[r.id for r in store.filter(m, q)] for m, q in queries]
        threads, rounds, loops = 8, 10, 25
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                model_registry.memo = {}
                obs.reset()
                barrier = threading.Barrier(threads)
                wrong: list = []

                def work():
                    barrier.wait(timeout=10)
                    for _ in range(loops):
                        got = [[r.id for r in store.filter(m, q)] for m, q in queries]
                        if got != expected or not device.linecards:
                            wrong.append(got)
                        obs.counter("x.y", a="1").inc()

                pool = [threading.Thread(target=work) for _ in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in pool)
                assert not wrong
                assert obs.counter("x.y", a="1").value == threads * loops
                queried = [s for s in obs.registry().series() if s.name == "store.query"]
                assert sum(s.value for s in queried) == threads * loops * len(queries)
                assert len(queried) == len({m for m, _q in queries})
        finally:
            sys.setswitchinterval(previous)


# ---------------------------------------------------------------------------
# One values dict per row write
# ---------------------------------------------------------------------------


class TestOneValuesDictPerRowWrite:
    @pytest.mark.parametrize("make_store", [ObjectStore, lambda: ShardedObjectStore(shards=4)])
    def test_live_row_mutation_reaches_neither_journal_nor_shadow(self, make_store):
        store = make_store()
        store.create(RackProfile, name="taken", downlinks_per_rack=1)
        rack = store.create(RackProfile, name="r1", downlinks_per_rack=4)
        store.update(rack, downlinks_per_rack=6)
        created, updated = store.journal[-2:]
        assert created.values["downlinks_per_rack"] == 4  # not rewritten by the update
        # The caller dirties the live row, then a save() is rejected:
        rack.downlinks_per_rack = 9
        rack.name = "taken"
        assert updated.values == {
            "name": "r1", "downlinks_per_rack": 6, "downlink_speed_mbps": 10_000
        }
        with pytest.raises(IntegrityError):
            store.save(rack)
        assert (rack.name, rack.downlinks_per_rack) == ("r1", 6)  # restored
        assert updated.values["downlinks_per_rack"] == 6
        assert store.journal[-1] is updated

    def test_rollback_restores_the_shadow_an_update_superseded(self):
        store = ObjectStore()
        rack = store.create(RackProfile, name="r1", downlinks_per_rack=4)
        digest = durability.store_digest(store)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.update(rack, name="r2")
                store.update(rack, downlinks_per_rack=8)
                store.delete(rack)
                raise RuntimeError("abort")
        assert durability.store_digest(store) == digest
        assert store.first(RackProfile, Expr("name", Op.EQUAL, "r1")) is rack
        store.update(rack, downlinks_per_rack=5)
        assert store.journal[-1].changed_fields == ("downlinks_per_rack",)

    def test_shard_row_counts_follow_every_kind_of_write(self):
        store = populate(ShardedObjectStore(shards=4))
        with pytest.raises(RuntimeError):
            with store.transaction():
                for device in store.all(PeeringRouter):
                    store.update(device, drain_state=DrainState.DRAINED)
                store.delete(store.all(Circuit)[0])  # cascades to its prefixes
                raise RuntimeError("abort")
        store.delete(store.all(Circuit)[0])
        store.delete(store.all(DerivedInterface)[0])
        replica = ShardedObjectStore(shards=4)
        for record in store.journal:
            replica.apply_record(record)
        for subject in (store, replica):
            live = {row.id for rows in subject._tables.values() for row in rows.values()}
            assert subject._home.keys() == live
            for shard in subject.shards:
                sent_here = [i for i, home in subject._home.items() if home == shard.shard_index]
                assert shard.total_objects() == len(sent_here)
            assert sum(subject.shard_sizes().values()) == subject.total_objects()
        assert replica.shard_sizes() == store.shard_sizes()


# ---------------------------------------------------------------------------
# obs: the call-site spelling memo
# ---------------------------------------------------------------------------


def reference_get_or_create(self, kind, name, labels, buckets=None):
    """``MetricsRegistry._get_or_create`` without the spelling memo."""
    key = (name, _label_key(labels))
    series = self._series.get(key)
    if series is None:
        label_strs = {k: str(v) for k, v in labels.items()}
        if kind is Histogram:
            series = Histogram(name, label_strs, buckets or DEFAULT_BUCKETS)
        else:
            series = kind(name, label_strs)
        self._series[key] = series
    if not isinstance(series, kind):
        raise ValueError(f"metric {name!r} is a {series.kind}")
    return series


class Colour(str, Enum):
    RED = "red"


class TestSpellingMemo:
    def test_label_order_and_str_equal_values_are_one_series(self):
        first = obs.counter("x.y", a=1, b=2)
        assert obs.counter("x.y", b=2, a=1) is first
        assert obs.counter("x.y", a="1", b="2") is first
        assert obs.counter("x.y", b="2", a="1") is first
        assert len([s for s in obs.registry().series() if s.name == "x.y"]) == 1

    def test_values_that_hash_equal_but_print_differently_stay_apart(self):
        one = obs.counter("x.y", a=1)
        assert obs.counter("x.y", a="1") is one
        assert obs.counter("x.y", a=True) is not one
        assert obs.counter("x.y", a=1.0) is not one
        assert obs.counter("x.y", a=True).labels == {"a": "True"}
        assert obs.counter("x.y", a=1.0).labels == {"a": "1.0"}
        # A str subclass that prints as something else is not a plain string.
        plain = obs.counter("x.y", a="red")
        assert obs.counter("x.y", a=Colour.RED).labels == {"a": str(Colour.RED)}
        assert obs.counter("x.y", a="red") is plain

    def test_a_kind_clash_is_still_refused_and_unhashable_labels_still_work(self):
        obs.counter("x.y", a="1")
        with pytest.raises(ValueError, match="is a counter"):
            obs.gauge("x.y", a="1")
        assert obs.counter("x.y", a=["p", "q"]).labels == {"a": "['p', 'q']"}

    def test_reset_forgets_the_memo(self):
        registry = obs.registry()
        before = obs.counter("x.y", a="1")
        before.inc(3)
        assert registry._spelled
        obs.reset()
        assert not registry._spelled
        after = obs.counter("x.y", a="1")
        assert after is not before and after.value == 0
        assert registry.series() == [after]

    def test_disabled_registry_fills_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x.y", a="1").inc()
        registry.timed("x.y", a="1").__enter__()
        assert not registry._series and not registry._spelled

    def test_deterministic_dump_of_a_seeded_cycle_equals_the_reference_registry(
        self, monkeypatch
    ):
        def seeded_cycle() -> str:
            obs.reset()
            robotron = Robotron(shards=4)
            env = seed_environment(robotron.store)
            cluster = robotron.build_cluster(
                "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
            )
            robotron.boot_fleet()
            assert robotron.provision_cluster(cluster).ok
            robotron.attach_monitoring()
            robotron.run_minutes(2)
            device = robotron.store.all(PeeringRouter)[0]
            robotron.store.update(device, drain_state=DrainState.DRAINED)
            report = robotron.incremental_cycle()
            assert report.ok and report.generation.regenerated
            return json.dumps(obs.deterministic_dump(), sort_keys=True)

        with_memo = seeded_cycle()
        assert obs.registry()._spelled
        monkeypatch.setattr(MetricsRegistry, "_get_or_create", reference_get_or_create)
        assert seeded_cycle() == with_memo
        assert not obs.registry()._spelled


# ---------------------------------------------------------------------------
# WAL: scalars pass through, bytes unchanged
# ---------------------------------------------------------------------------


def reference_encode_record(record: ChangeRecord) -> bytes:
    """``encode_record`` with every value through the recursive encoder."""
    return durability._canonical(
        {
            "txn_id": record.txn_id,
            "op": record.op.value,
            "model": record.model,
            "obj_id": record.obj_id,
            "values": {k: durability.encode_value(v) for k, v in record.values.items()},
            "changed_fields": list(record.changed_fields),
            "change_id": record.change_id,
        }
    )


CORPUS = {
    "enum": DrainState.DRAINED,
    "str_enum": Colour.RED,
    "dollar_dict": {"$enum": "spoof", "plain": {"$value": 1, "nested": [DrainState.UNDRAINED]}},
    "dict": {"a": 1, "b": [1.5, None, True]},
    "list": [1, "two", 3.0, [DrainState.DRAINED]],
    "tuple": (1, 2),
    "none": None,
    "true": True,
    "false": False,
    "float": 2.5,
    "int": -7,
    "big": 2**70,
    "str": "ünïcode $dict",
    "empty": {},
}


class TestWalBytes:
    @pytest.mark.parametrize("op", list(ChangeOp))
    def test_bytes_equal_the_recursive_reference_and_round_trip(self, op):
        record = ChangeRecord(
            txn_id=3, op=op, model="RackProfile", obj_id=11, values=dict(CORPUS),
            changed_fields=("enum", "dict"), change_id="chg-7",
        )
        data = durability.encode_record(record)
        assert data == reference_encode_record(record)
        decoded = durability.decode_record(data)
        # JSON has no tuple: it comes back as the list it was written as.
        assert decoded.values == {**CORPUS, "tuple": [1, 2]}
        assert type(decoded.values["true"]) is bool and type(decoded.values["int"]) is int
        assert decoded.values["enum"] is DrainState.DRAINED
        assert (decoded.txn_id, decoded.op, decoded.model, decoded.obj_id) == (3, op, "RackProfile", 11)
        assert durability.encode_record(decoded) == data

    def test_a_real_journal_encodes_as_the_reference_does(self):
        store = populate(ObjectStore())
        assert {type(v) for r in store.journal for v in r.values.values()} >= {
            str, int, bool, type(None), DrainState
        }
        for record in store.journal:
            data = durability.encode_record(record)
            assert data == reference_encode_record(record)
            assert durability.decode_record(data) == record

    def test_an_unknown_op_is_malformed_not_a_crash(self):
        payload = durability.record_payload(
            ChangeRecord(txn_id=1, op=ChangeOp.CREATE, model="Region", obj_id=1)
        )
        for bad in ("upsert", ["create"], None):
            with pytest.raises(durability.DurabilityError, match="malformed"):
                durability.record_from_payload({**payload, "op": bad})
