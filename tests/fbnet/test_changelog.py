"""Tests for read tracking, read-sets and the read-set index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fbnet.base import Model, ModelGroup, model_registry
from repro.fbnet.changelog import (
    ReadSet,
    ReadSetIndex,
    equality_dependencies,
    query_models,
)
from repro.fbnet.fields import CharField
from repro.fbnet.models import (
    Device,
    DrainState,
    Linecard,
    NetworkDomain,
    PeeringRouter,
    Pop,
    Region,
)
from repro.fbnet.query import And, Expr, Not, Op, Or
from repro.fbnet.store import ChangeOp, ChangeRecord

pytestmark = pytest.mark.incremental


@pytest.fixture
def pr(store, env):
    return store.create(
        PeeringRouter,
        name="pr1",
        hardware_profile=env.profiles["Router_Vendor1"],
        pop=env.pops["pop01"],
    )


class TestTrackReads:
    def test_get_records_object_dep(self, store):
        region = store.create(Region, name="r1")
        with store.track_reads() as reads:
            store.get(Region, region.id)
        assert ("Region", region.id) in reads.objects

    def test_all_records_model_dep(self, store):
        with store.track_reads() as reads:
            store.all(Region)
        assert "Region" in reads.models

    def test_indexed_filter_records_field_dep(self, store, env, pr):
        with store.track_reads() as reads:
            store.filter(PeeringRouter, Expr("name", Op.EQUAL, "pr1"))
        assert "pr1" in reads.fields["PeeringRouter"]["name"]
        assert not reads.models  # no conservative fallback needed

    def test_unanalyzable_query_falls_back_to_model(self, store):
        store.create(Region, name="r1")
        with store.track_reads() as reads:
            store.filter(Region, Expr("name", Op.STARTSWITH, "r"))
        assert "Region" in reads.models

    def test_related_records_object_dep(self, store, env, pr):
        with store.track_reads() as reads:
            pr.related("pop")
        assert ("Pop", env.pops["pop01"].id) in reads.objects

    def test_reverse_relation_records_fk_dep(self, store, env, pr):
        pop = env.pops["pop01"]
        with store.track_reads() as reads:
            list(pop.peering_routers)
        assert pop.id in reads.fields["PeeringRouter"]["pop"]

    def test_nested_trackers_both_record(self, store):
        region = store.create(Region, name="r1")
        with store.track_reads() as outer:
            with store.track_reads() as inner:
                store.get(Region, region.id)
        assert ("Region", region.id) in inner.objects
        assert ("Region", region.id) in outer.objects

    def test_no_tracking_outside_block(self, store):
        region = store.create(Region, name="r1")
        with store.track_reads() as reads:
            pass
        store.get(Region, region.id)
        assert not reads


class TestEqualityDependencies:
    def test_plain_equality(self):
        deps = equality_dependencies(Expr("name", Op.EQUAL, "x"))
        assert deps == [("name", ("x",))]

    def test_or_unions_children(self):
        deps = equality_dependencies(
            Or(Expr("device", Op.EQUAL, 1), Expr("peer_device", Op.EQUAL, 1))
        )
        assert deps == [("device", (1,)), ("peer_device", (1,))]

    def test_or_with_unanalyzable_child_bails(self):
        assert (
            equality_dependencies(
                Or(Expr("a", Op.EQUAL, 1), Expr("b", Op.GT, 2))
            )
            is None
        )

    def test_and_uses_first_analyzable_child(self):
        deps = equality_dependencies(
            And(Expr("a", Op.GT, 0), Expr("b", Op.EQUAL, 2))
        )
        assert deps == [("b", (2,))]

    def test_dotted_path_not_analyzable(self):
        assert equality_dependencies(Expr("pop.name", Op.EQUAL, "x")) is None

    def test_not_never_analyzable(self):
        assert equality_dependencies(Not(Expr("a", Op.EQUAL, 1))) is None


class TestQueryModels:
    """The models a query depends on wholesale: what its dotted paths
    resolve through the store, family-wide, and — unanalyzable — itself."""

    def test_fk_into_an_abstract_family_keeps_the_path(self):
        # `pop` is declared on PeeringRouter, not on the abstract Device
        # the queried name resolves to: the walk looks at the members.
        query = Expr("pop.name", Op.EQUAL, "pop01")
        assert query_models(Device, query) == {"Device", "Pop"}
        assert query_models(PeeringRouter, query) == {"PeeringRouter", "Pop"}
        deep = Expr("device.pop.peering_routers.name", Op.EQUAL, "pr1")
        assert query_models(Linecard, deep) == {"Linecard", "Device", "Pop", "PeeringRouter"}

    def test_an_fk_read_off_the_row_traverses_nothing(self):
        for path in ("device", "device.id", "slot", "id"):
            assert query_models(Linecard, Expr(path, Op.NOT_EQUAL, 1)) == {"Linecard"}
        # ... while a hop beyond it resolves the row it points at.
        assert query_models(Linecard, Expr("device.name", Op.EQUAL, "x")) == {
            "Linecard", "Device",
        }

    def test_an_analyzable_query_keeps_only_what_it_traverses(self):
        local = And(Expr("slot", Op.EQUAL, 1), Expr("device", Op.EQUAL, 7))
        assert query_models(Linecard, local) == set()
        query = And(
            Expr("slot", Op.EQUAL, 1),
            Or(Expr("device.name", Op.EQUAL, "x"), Not(Expr("linecard_model.name", Op.EQUAL, "y"))),
        )
        assert query_models(Linecard, query) == {"Device", "LinecardModel"}

    def test_and_read_set_holds_the_traversed_models_too(self, store, env, pr):
        # One analyzable child bounds what a *Linecard* record can do; the
        # dotted sibling changes with the router, so its model is a
        # dependency whatever the index answered.
        query = And(Expr("device", Op.EQUAL, pr.id), Expr("device.name", Op.EQUAL, "pr1"))
        with store.track_reads() as reads:
            store.filter(Linecard, query)
        assert reads.fields == {"Linecard": {"device": {pr.id}}}
        assert reads.models == {"Device"}
        assert not reads.objects  # the filter's own hops are not reads
        store.update(pr, name="pr1-renamed")
        assert reads.matches(store.journal[-1])
        # Local equalities alone record what they always did.
        with store.track_reads() as local:
            store.filter(Linecard, And(Expr("device", Op.EQUAL, pr.id), Expr("slot", Op.EQUAL, 1)))
        assert not local.models


class TestReadSetMatching:
    def test_object_dep_matches_update(self, store, env, pr):
        reads = ReadSet()
        reads.add_object("PeeringRouter", pr.id)
        position = store.journal_position
        store.update(pr, name="pr1-renamed")
        (record,) = store.journal_since(position)
        assert reads.matches(record)

    def test_object_dep_via_abstract_base(self, store, env, pr):
        # generate_device records the device as its concrete class; a dep
        # recorded against the abstract base must still match.
        reads = ReadSet()
        reads.add_object("Device", pr.id)
        position = store.journal_position
        store.update(pr, name="pr1-renamed")
        (record,) = store.journal_since(position)
        assert reads.matches(record)

    def test_field_dep_matches_create(self, store, env):
        reads = ReadSet()
        reads.add_field("Pop", "region", (env.regions["na-east"].id,))
        position = store.journal_position
        store.create(
            Pop,
            name="pop-new",
            region=env.regions["na-east"],
            domain=NetworkDomain.POP,
        )
        (record,) = store.journal_since(position)
        assert record.op is ChangeOp.CREATE
        assert reads.matches(record)

    def test_field_dep_matches_changed_field_even_without_value(
        self, store, env, pr
    ):
        # pr moves from pop01 to pop02: a computation keyed on pop01 no
        # longer sees it, so the update must match via changed_fields even
        # though the *new* value is pop02.
        reads = ReadSet()
        reads.add_field("PeeringRouter", "pop", (env.pops["pop01"].id,))
        position = store.journal_position
        store.update(pr, pop=env.pops["pop02"])
        (record,) = store.journal_since(position)
        assert reads.matches(record)

    def test_unrelated_record_does_not_match(self, store, env, pr):
        reads = ReadSet()
        reads.add_object("PeeringRouter", pr.id)
        reads.add_field("PeeringRouter", "pop", (env.pops["pop01"].id,))
        position = store.journal_position
        store.create(Region, name="elsewhere")
        (record,) = store.journal_since(position)
        assert not reads.matches(record)

    def test_model_dep_matches_any_family_record(self, store, env, pr):
        reads = ReadSet()
        reads.add_model("Device")
        position = store.journal_position
        store.update(pr, name="pr1-renamed")
        (record,) = store.journal_since(position)
        assert reads.matches(record)

    def test_late_registered_subclass_dirties_a_scan_of_its_base(self):
        # The ancestry of a name is a fact of the registered set: asked
        # about before the models exist, it must not be remembered past
        # the registration that changes the answer.
        reads = ReadSet()
        reads.add_model("LateBase")
        record = ChangeRecord(txn_id=1, op=ChangeOp.CREATE, model="LateGadget", obj_id=1)
        index = ReadSetIndex()
        index.put("scan", reads)
        assert not reads.matches(record)
        assert index.affected(record) == set()

        class LateBase(Model):
            class Meta:
                abstract = True

        class LateGadget(LateBase):
            class Meta:
                group = ModelGroup.DESIRED

            label = CharField(default="")

        try:
            assert reads.matches(record)
            assert index.affected(record) == {"scan"}
        finally:
            del model_registry._models["LateGadget"]
            model_registry.memo = {}

    def test_merge_combines_dependencies(self):
        left, right = ReadSet(), ReadSet()
        left.add_object("Region", 1)
        right.add_model("Pop")
        right.add_field("Device", "name", ("x",))
        left.merge(right)
        assert ("Region", 1) in left.objects
        assert "Pop" in left.models
        assert "x" in left.fields["Device"]["name"]
        assert len(left) == 3


#: ``Device`` is the abstract base of the two router models, so a dependency
#: recorded against it must match their records; ``Region`` stands alone.
_DEP_MODELS = ("Device", "PeeringRouter", "NetworkSwitch", "Region")
_RECORD_MODELS = ("PeeringRouter", "NetworkSwitch", "Region")
_FIELDS = ("name", "pop", "drain_state", "tags")
_values = st.one_of(
    st.none(),
    st.integers(0, 3),
    st.sampled_from(["a", "b"]),
    st.sampled_from(DrainState),
    st.lists(st.integers(0, 1), max_size=2),
)


@st.composite
def _read_sets(draw):
    read_set = ReadSet()
    for model in draw(st.lists(st.sampled_from(_DEP_MODELS), max_size=2)):
        read_set.add_model(model)
    for model, obj_id in draw(
        st.lists(
            st.tuples(st.sampled_from(_DEP_MODELS), st.integers(1, 4)), max_size=3
        )
    ):
        read_set.add_object(model, obj_id)
    for model, field_name, values in draw(
        st.lists(
            st.tuples(
                st.sampled_from(_DEP_MODELS),
                st.sampled_from(_FIELDS),
                st.lists(_values, max_size=2),  # empty: "field changed" rule only
            ),
            max_size=3,
        )
    ):
        read_set.add_field(model, field_name, values)
    return read_set


@st.composite
def _records(draw):
    op = draw(st.sampled_from(ChangeOp))
    values = draw(st.dictionaries(st.sampled_from(_FIELDS), _values))
    changed = (
        tuple(draw(st.lists(st.sampled_from(_FIELDS), unique=True)))
        if op is ChangeOp.UPDATE
        else ()
    )
    return ChangeRecord(
        txn_id=1,
        op=op,
        model=draw(st.sampled_from(_RECORD_MODELS)),
        obj_id=draw(st.integers(1, 4)),
        values=values,
        changed_fields=changed,
    )


class TestReadSetIndex:
    """The index answers exactly what ``ReadSet.matches`` answers."""

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 5), st.one_of(st.none(), _read_sets())),
            max_size=12,
        ),
        records=st.lists(_records(), min_size=1, max_size=8),
    )
    def test_affected_equals_matches(self, steps, records):
        index = ReadSetIndex()
        sets: dict[int, ReadSet] = {}
        for key, read_set in steps:  # a put (also over a live key) or a discard
            if read_set is None:
                index.discard(key)
                sets.pop(key, None)
            else:
                index.put(key, read_set)
                sets[key] = read_set
            for record in records:
                assert index.affected(record) == {
                    k for k, rs in sets.items() if rs.matches(record)
                }

    def test_discard_leaves_no_postings_behind(self):
        index = ReadSetIndex()
        read_set = ReadSet()
        read_set.add_model("Region")
        read_set.add_object("Device", 1)
        read_set.add_field("Device", "pop", [3])
        index.put("k", read_set)
        index.put("k", ReadSet())
        index.discard("k")
        index.discard("never put")
        assert not index._postings and not index._terms
