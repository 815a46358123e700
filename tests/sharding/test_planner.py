"""The one query planner: planner ≡ brute-force scan, and routing counters.

``repro.fbnet.query.plan`` is the only index-or-scan decision, shared by
``ObjectStore`` and ``ShardedObjectStore`` and by all four read verbs.
The property here holds it to its contract: for any query tree, every
verb on every store variant returns what a brute-force scan returns, and
records one and the same read-set — so neither the plan taken nor the
shard layout is observable.  The scan's oracle is :func:`reference_matches`,
the query language spelled out in this file over ``resolve_path`` leaves:
it shares nothing with ``Query.compile``, which is what the store (and
``Query.matches``) evaluates, so the same property holds the compiled
predicates and the read API's projections to the reference — errors
included.  The router's part is routing: ``store.planner.single_shard`` /
``store.planner.fanout`` say which way a read went, identically for every
verb, and ``store.planner.scan`` names the shapes no index covers.
"""

from __future__ import annotations

import operator
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import obs, seed_environment
from repro.common.errors import QueryError
from repro.configgen.derive import _derive_bgp
from repro.design.cluster import build_cluster
from repro.fbnet.api import ReadApi
from repro.fbnet.models import (
    BgpV4Session,
    BgpV6Session,
    ClusterGeneration,
    DerivedCircuit,
    DerivedInterface,
    Device,
    Linecard,
    NetworkSwitch,
    OperStatus,
    PeeringRouter,
    PhysicalInterface,
    Pop,
    Region,
)
from repro.fbnet.query import And, Expr, Not, Op, Or, plan
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore
from repro.monitoring.backends import DerivedModelBackend
from repro.simulation.clock import EventScheduler
from tests.fbnet.test_query import resolve_path

pytestmark = pytest.mark.sharding

VERBS = ("filter", "count", "exists", "first")


def readset_shape(reads):
    return (
        set(reads.models),
        set(reads.objects),
        {
            model: {field: set(values) for field, values in per_field.items()}
            for model, per_field in reads.fields.items()
        },
    )


def counter_sum(name: str, store) -> float:
    return sum(
        series.value
        for series in obs.registry().series()
        if series.name == name and series.labels.get("store") == store.name
    )


def plan_counters(store) -> dict[str, float]:
    return {
        name: counter_sum(name, store)
        for name in (
            "store.query",
            "store.planner.single_shard",
            "store.planner.fanout",
            "store.planner.scan",
        )
    }


# ---------------------------------------------------------------------------
# The object graph every store variant holds, id for id
# ---------------------------------------------------------------------------


def populate(store):
    """Two POP clusters in two regions, null FKs, and Derived rows."""
    env = seed_environment(store)
    for pop in ("pop01", "pop02"):
        build_cluster(store, f"{pop}.c01", env.pops[pop], ClusterGeneration.POP_GEN2)
    store.update(store.all(PhysicalInterface)[0], agg_interface=None)
    store.update(store.all(BgpV6Session)[0], peer_device=None)
    for device in ("psw01", "psw02"):
        for port, status in enumerate((OperStatus.UP, OperStatus.DOWN, OperStatus.UP)):
            store.create(
                DerivedInterface,
                device_name=device,
                name=f"et1/{port}",
                oper_status=status,
            )
    return store


@pytest.fixture(scope="module")
def variants():
    """The plain store and the sharded store at 1 and 4 shards."""
    return [
        populate(ObjectStore(name="plain")),
        populate(ShardedObjectStore(shards=1, name="one-shard")),
        populate(ShardedObjectStore(shards=4, name="four-shards")),
    ]


#: Per model, the field paths queries are drawn over: FK, unique,
#: ``unique_together`` members, plain values, enums, ``id`` and dotted
#: paths (forward FK hops, a terminal FK, a trailing ``fk.id``, a reverse
#: relation) — among them an FK and a reverse relation only a subclass
#: declares (``PeeringRouter.pop``, ``Pop.peering_routers``) and a hop
#: through an abstract target onto such a field (``Linecard.device`` is a
#: ``Device``; only a router's linecard has a ``device.pop``, a switch's
#: raises).
PATHS = {
    PhysicalInterface: (
        "id", "name", "port", "speed_mbps", "enabled", "linecard", "agg_interface",
        "linecard.id", "linecard.device", "linecard.device.name", "agg_interface.name",
    ),
    BgpV6Session: (
        "device", "peer_device", "peer_ip", "session_type", "local_asn",
        "device.name", "peer_device.id",
    ),
    Pop: ("name", "region", "domain", "region.name", "peering_routers.name"),
    Device: ("name", "drain_state", "status", "cluster", "hardware_profile", "linecards.slot"),
    DerivedInterface: ("device_name", "name", "oper_status"),
    PeeringRouter: ("name", "pop", "pop.name", "pop.peering_routers.name"),
    Linecard: ("slot", "device", "device.name", "device.pop.name"),
}
MODELS = tuple(PATHS)
#: The paths above that cross a reverse relation: the read API answers
#: them with a list, every other with the one leaf or ``None``.
FANS_OUT = {"peering_routers.name", "linecards.slot", "pop.peering_routers.name"}


# ---------------------------------------------------------------------------
# The reference: the query language over ``resolve_path`` leaves
# ---------------------------------------------------------------------------

_ORDER = {Op.GT: operator.gt, Op.GTE: operator.ge, Op.LT: operator.lt, Op.LTE: operator.le}


def reference_matches(query, row) -> bool:
    """Whether ``row`` matches ``query``, by the definitions of section
    4.2.1 and nothing else: no plan, no memo, no compiled predicate."""
    if isinstance(query, And):
        return all(reference_matches(child, row) for child in query.children)
    if isinstance(query, Or):
        return any(reference_matches(child, row) for child in query.children)
    if isinstance(query, Not):
        return not reference_matches(query.child, row)
    leaves = resolve_path(row, query.field)
    if query.op is Op.IS_NULL:
        return all(leaf is None for leaf in leaves) == query.rvalues[0]
    if query.op is Op.NOT_EQUAL:
        return not any(leaf == rv for leaf in leaves for rv in query.rvalues)
    return any(_leaf_matches(query, leaf) for leaf in leaves)


def _leaf_matches(expr, leaf) -> bool:
    op, rvalues = expr.op, expr.rvalues
    if op is Op.EQUAL:
        return any(leaf == rv for rv in rvalues)
    if leaf is None:
        return False
    if op is Op.REGEXP:
        return any(re.search(str(rv), str(leaf)) for rv in rvalues)
    if op is Op.CONTAINS:
        return any(str(rv) in str(leaf) for rv in rvalues)
    if op is Op.STARTSWITH:
        return any(str(leaf).startswith(str(rv)) for rv in rvalues)
    try:
        return _ORDER[op](leaf, rvalues[0])
    except TypeError:
        raise QueryError(
            f"cannot order {type(leaf).__name__} against "
            f"{type(rvalues[0]).__name__} for field {expr.field!r}"
        ) from None


def outcome(fn, *args):
    """``("ok", value)`` or ``("error", message)``: a refusal is an answer
    both sides must give, not a case to skip."""
    try:
        return "ok", fn(*args)
    except QueryError as exc:
        return "error", str(exc)


def value_pool(store, model, path) -> list:
    """Rvalues to draw from: stored values, a miss, null, an enum member."""
    seen: dict[str, object] = {}
    for row in store.all(model):
        kind, leaves = outcome(resolve_path, row, path)
        for leaf in leaves if kind == "ok" else ():
            seen.setdefault(repr(leaf), leaf)
    stored = [seen[key] for key in sorted(seen)]
    sample = next((v for v in stored if v is not None), "")
    miss = "zz-miss" if isinstance(sample, str) else -7
    field = model._meta.fields.get(path)
    enum_members = list(getattr(field, "enum_type", ()))[:1]
    return stored[:4] + stored[-2:] + [miss, None] + enum_members


# A query tree as plain data, realised against a model's paths and pools.
leaf_shape = st.tuples(
    st.just("leaf"),
    st.integers(0, 31),
    st.sampled_from(list(Op)),
    st.lists(st.integers(0, 31), min_size=1, max_size=3),
)
tree_shape = st.recursive(
    leaf_shape,
    lambda children: st.one_of(
        st.tuples(st.just("and"), st.lists(children, min_size=1, max_size=3)),
        st.tuples(st.just("or"), st.lists(children, min_size=1, max_size=3)),
        st.tuples(st.just("not"), children),
    ),
    max_leaves=6,
)


def realise(shape, store, model):
    kind = shape[0]
    if kind == "leaf":
        _kind, path_pick, op, value_picks = shape
        paths = PATHS[model]
        path = paths[path_pick % len(paths)]
        pool = value_pool(store, model, path)
        values = [pool[pick % len(pool)] for pick in value_picks]
        if op in (Op.GT, Op.GTE, Op.LT, Op.LTE, Op.IS_NULL):
            values = values[0]
        return Expr(path, op, values)
    if kind == "not":
        return Not(realise(shape[1], store, model))
    children = [realise(child, store, model) for child in shape[1]]
    return And(*children) if kind == "and" else Or(*children)


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


def reference_scan(store, model, query):
    """The outcome of a brute-force scan, over the rows the planner leaves
    to examine: a refusal belongs to a row (a switch's linecard has no
    ``device.pop``), and an index may narrow the scan past every such row.
    Where the whole table answers, the narrowed scan must answer the same."""
    rows = store.all(model)
    whole = outcome(lambda: [r.id for r in rows if reference_matches(query, r)])
    candidates = plan(store, model, query)
    if candidates is None:
        return whole
    ids = set().union(*candidates.values())
    narrowed = outcome(
        lambda: [r.id for r in rows if r.id in ids and reference_matches(query, r)]
    )
    assert whole[0] == "error" or narrowed == whole, query
    return narrowed


def assert_planner_is_scan(variants, model, query):
    """Every verb on every variant answers ``query`` as a brute-force scan
    by the reference does — or refuses it, when the scan refuses."""
    kind, expected = reference_scan(variants[0], model, query)
    answers = kind == "ok" and {
        "filter": expected,
        "count": len(expected),
        "exists": bool(expected),
        "first": expected[0] if expected else None,
    }
    read_sets = []
    for store in variants:
        for verb in VERBS:
            with store.track_reads() as reads:
                got_kind, got = outcome(getattr(store, verb), model, query)
            assert got_kind == kind, (store.name, verb, query, got)
            if verb == "filter" and answers:
                got = [row.id for row in got]
            elif verb == "first" and answers:
                got = got.id if got is not None else None
            # Which row refuses first is the table order's, so a refusal
            # is compared as a refusal; ``test_any_query_tree`` compares
            # the message row by row.
            assert not answers or got == answers[verb], (store.name, verb, query)
            read_sets.append(readset_shape(reads))
    assert all(shape == read_sets[0] for shape in read_sets), query
    return expected


class TestPlannerEqualsScan:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(model_pick=st.integers(0, len(MODELS) - 1), shape=tree_shape)
    def test_any_query_tree(self, variants, model_pick, shape):
        model = MODELS[model_pick]
        try:
            query = realise(shape, variants[0], model)
        except QueryError:
            assume(False)  # a stored value that is no regexp: no query was built
        # Row by row the compiled predicate is the reference, down to the
        # message of a refusal (an unknown field on the row a hop lands
        # on, an ordered comparison across types).
        for row in variants[0].all(model):
            assert outcome(query.matches, row) == outcome(reference_matches, query, row)
        assert_planner_is_scan(variants, model, query)

    def test_abstract_hop_refuses_a_scan_and_answers_when_narrowed(self, variants):
        plain = variants[0]
        router, switch = plain.all(PeeringRouter)[0], plain.all(NetworkSwitch)[0]
        on_pop = Expr("device.pop.name", Op.EQUAL, "pop01")
        refusal = assert_planner_is_scan(variants, Linecard, on_pop)
        assert refusal.startswith("unknown field 'pop' in path 'device.pop.name' on ")
        cards = assert_planner_is_scan(
            variants, Linecard, And(Expr("device", Op.EQUAL, router.id), on_pop)
        )
        assert cards == [card.id for card in router.linecards]
        assert_planner_is_scan(
            variants, Linecard, And(Expr("device", Op.EQUAL, switch.id), on_pop)
        )  # narrowed onto rows that all refuse
        # The same facts from the model that declares them: nothing refuses.
        routers = assert_planner_is_scan(
            variants, PeeringRouter, Expr("pop.peering_routers.name", Op.EQUAL, router.name)
        )
        assert len(routers) == 2 and router.id in routers

    def test_unique_index_hit_and_miss(self, variants):
        hit = assert_planner_is_scan(variants, Pop, Expr("name", Op.EQUAL, "pop01"))
        assert len(hit) == 1
        assert assert_planner_is_scan(variants, Pop, Expr("name", Op.EQUAL, "nope")) == []

    def test_and_narrowed_by_one_indexed_child(self, variants):
        pop = variants[0].first(Pop, Expr("name", Op.EQUAL, "pop01"))
        query = And(
            Expr("name", Op.EQUAL, "pop01"), Expr("region", Op.EQUAL, pop.region_id)
        )
        assert assert_planner_is_scan(variants, Pop, query) == [pop.id]

    def test_abstract_model_unique_lookup(self, variants):
        name = variants[0].all(PeeringRouter)[0].name
        found = assert_planner_is_scan(variants, Device, Expr("name", Op.EQUAL, name))
        assert len(found) == 1

    def test_null_and_enum_rvalues_fall_back_to_the_scan(self, variants):
        null_agg = assert_planner_is_scan(
            variants, PhysicalInterface, Expr("agg_interface", Op.EQUAL, None)
        )
        assert null_agg == []  # a null FK contributes no leaf to compare
        by_member = assert_planner_is_scan(
            variants, DerivedInterface, Expr("oper_status", Op.EQUAL, OperStatus.UP)
        )
        by_value = assert_planner_is_scan(
            variants, DerivedInterface, Expr("oper_status", Op.EQUAL, "up")
        )
        assert by_member == [] and len(by_value) == 4  # enums compare by value


class TestProjectionEqualsReference:
    """``ReadApi.get`` answers a field with the reference's leaves: all of
    them where the path fans out, else the one leaf or ``None``."""

    @staticmethod
    def projected(rows, path):
        def shaped(leaves):
            if path in FANS_OUT:
                return leaves
            return leaves[0] if leaves else None

        return outcome(
            lambda: [{"id": row.id, path: shaped(resolve_path(row, path))} for row in rows]
        )

    @pytest.mark.parametrize("model", MODELS, ids=lambda model: model.__name__)
    def test_every_path_of_every_row(self, variants, model):
        for store in variants:
            rows = store.all(model)
            for path in PATHS[model]:
                got = outcome(ReadApi(store).get, model.__name__, [path])
                assert got == self.projected(rows, path), (store.name, path)

    def test_abstract_hop_projects_for_the_rows_that_have_it(self, variants):
        for store in variants:
            router = store.all(PeeringRouter)[0]
            path = "device.pop.peering_routers.name"
            got = ReadApi(store).get(
                "Linecard", ["device.pop.name", path], Expr("device", Op.EQUAL, router.id)
            )
            routers = [r.name for r in store.all(PeeringRouter) if r.pop_id == router.pop_id]
            assert len(routers) == 2 and got == [
                {"id": card.id, "device.pop.name": "pop01", path: routers}
                for card in router.linecards
            ]
            refused = outcome(ReadApi(store).get, "Linecard", [path])
            assert refused == self.projected(store.all(Linecard), path)
            assert refused[0] == "error"


class TestTrafficShapes:
    """The two shapes that were scans before the one planner (ISSUE 12)."""

    def test_derive_bgp_or_is_index_served(self, variants):
        for store in variants[1:]:
            device = store.all(PeeringRouter)[0]
            obs.reset()
            assert _derive_bgp(store, device)["neighbors"]
            assert counter_sum("store.planner.fanout", store) == 0
            assert counter_sum("store.planner.scan", store) == 0
        for model in (BgpV4Session, BgpV6Session):
            query = Or(
                Expr("device", Op.EQUAL, device.id),
                Expr("peer_device", Op.EQUAL, device.id),
            )
            assert assert_planner_is_scan(variants, model, query)

    def test_derived_upsert_and_is_index_served(self, variants):
        # A payload's one read must stay an index probe: a scan here is the
        # quadratic upsert of ledger finding 1 come back.
        ports = [{"name": f"et1/{i}", "oper_status": "up"} for i in range(3)]
        lldp = [
            {"local_interface": "et1/0", "neighbor_device": "psw02", "neighbor_interface": "et2/0"},
            {"local_interface": "et1/1", "neighbor_device": "psw01", "neighbor_interface": "et1/2"},
        ]
        for shards in (1, 4):
            store = ShardedObjectStore(shards=shards)
            backend = DerivedModelBackend(store, EventScheduler().clock)
            backend.store({"data_type": "interfaces", "device": "psw01", "payload": ports[:2]}, 1.0)
            backend.store({"data_type": "lldp", "device": "psw02", "payload": [
                {"local_interface": "et2/0", "neighbor_device": "psw01", "neighbor_interface": "et1/0"},
            ]}, 1.0)
            obs.reset()
            backend.store({"data_type": "interfaces", "device": "psw01", "payload": ports}, 2.0)
            backend.store({"data_type": "lldp", "device": "psw01", "payload": lldp}, 2.0)
            assert counter_sum("store.query", store) == 2
            assert counter_sum("store.planner.fanout", store) == 0
            assert counter_sum("store.planner.scan", store) == 0
            assert store.count(DerivedInterface) == 3
            assert store.count(DerivedCircuit) == 2  # psw02's mirror; et1/1 -> et1/2
        query = And(
            Expr("device_name", Op.EQUAL, "psw01"), Expr("name", Op.EQUAL, "et1/1")
        )
        assert len(assert_planner_is_scan(variants, DerivedInterface, query)) == 1


class TestVerbsShareOnePlan:
    """``first``/``exists`` used to skip the planner ``filter``/``count`` ran."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_four_verbs_agree_on_counters_and_result(self, shards):
        store = ShardedObjectStore(shards=shards)
        seed_environment(store)
        pop = store.first(Pop, Expr("name", Op.EQUAL, "pop01"))
        query = And(
            Expr("name", Op.STARTSWITH, "pop"), Expr("region", Op.EQUAL, pop.region_id)
        )
        seen = {}
        for verb in VERBS:
            obs.reset()
            got = getattr(store, verb)(Pop, query)
            seen[verb] = (got, plan_counters(store))
        counters = seen["filter"][1]
        assert counters == {
            "store.query": 1,
            "store.planner.single_shard": 1,
            "store.planner.fanout": 0,
            "store.planner.scan": 0,
        }
        assert all(seen[verb][1] == counters for verb in VERBS)
        assert seen["filter"][0] == [pop]
        assert seen["count"][0] == 1
        assert seen["exists"][0] is True
        assert seen["first"][0] is pop

    @pytest.mark.parametrize("shards", [1, 4])
    def test_unindexed_shape_counts_one_scan_on_every_verb(self, shards):
        store = ShardedObjectStore(shards=shards)
        seed_environment(store)
        for verb in VERBS:
            obs.reset()
            getattr(store, verb)(Region, Expr("name", Op.STARTSWITH, "na-"))
            counters = plan_counters(store)
            assert counters["store.planner.scan"] == 1
            assert counters["store.planner.single_shard"] == 0
            assert counters["store.planner.fanout"] == (shards if shards > 1 else 0)
        assert "store.planner.scan" in obs.report()


@pytest.fixture
def seeded(sharded):
    seed_environment(sharded)
    obs.reset()
    return sharded


class TestPlannerFastPath:
    def test_get_is_a_single_shard_read(self, seeded):
        region = seeded.all(Region)[0]
        obs.reset()
        assert seeded.get(Region, region.id) is region
        assert obs.counter("store.planner.single_shard", store=seeded.name).value == 1
        assert obs.counter("store.planner.fanout", store=seeded.name, shard="s00").value == 0

    def test_unique_index_filter_is_single_shard(self, seeded):
        obs.reset()
        found = seeded.filter(Pop, Expr("name", Op.EQUAL, "pop01"))
        assert [p.name for p in found] == ["pop01"]
        assert obs.counter("store.planner.single_shard", store=seeded.name).value == 1

    def test_narrowed_and_filter_is_single_shard(self, seeded):
        pop = seeded.filter(Pop, Expr("name", Op.EQUAL, "pop01"))[0]
        query = And(
            Expr("name", Op.EQUAL, "pop01"),
            Expr("region", Op.EQUAL, pop.region_id),
        )
        obs.reset()
        found = seeded.filter(Pop, query)
        assert [p.name for p in found] == ["pop01"]
        assert obs.counter("store.planner.single_shard", store=seeded.name).value == 1

    def test_full_scan_counts_fanout_per_shard(self):
        for shards in (1, 4):
            store = seed_environment(ShardedObjectStore(shards=shards)).store
            obs.reset()
            store.all(Region)
            for shard in store.shards:
                assert obs.counter(
                    "store.planner.fanout", store=store.name, shard=shard.shard_key
                ).value == (1 if shards > 1 else 0)

    def test_miss_on_unique_index_stays_single_shard(self, seeded):
        obs.reset()
        assert seeded.filter(Pop, Expr("name", Op.EQUAL, "nope")) == []
        assert obs.counter("store.planner.single_shard", store=seeded.name).value == 1


class TestShardObservability:
    def test_shard_gauges_cover_every_partition(self, seeded):
        seeded.create(Region, name="zz-extra")
        sizes = seeded.shard_sizes()
        for shard in seeded.shards:
            gauge = obs.gauge(
                "store.shard.objects", store=seeded.name, shard=shard.shard_key
            )
            assert gauge.value == sizes[shard.shard_key]

    def test_txn_counter_labels_the_touched_shard(self, seeded):
        region = seeded.create(Region, name="zz-extra")
        key = seeded.shard_of(region)
        assert (
            obs.counter("store.shard.txns", store=seeded.name, shard=key).value
            == 1
        )

    def test_report_renders_shard_metrics(self, seeded):
        region = seeded.create(Region, name="zz-extra")
        seeded.get(Region, region.id)  # counted at any shard count
        seeded.all(Device)
        report = obs.report()
        assert "store.shard.objects" in report
        assert "store.shard.txns" in report
        assert "store.planner.single_shard" in report or "store.planner.fanout" in report
        assert "s00" in report


class TestReadSetParity:
    def build(self, store):
        env = seed_environment(store)
        store.create(
            PeeringRouter,
            name="pr1",
            hardware_profile=env.profiles["Router_Vendor1"],
            pop=env.pops["pop01"],
        )
        return store

    def observe(self, store):
        shapes = []
        with store.track_reads() as reads:
            store.get(Region, store.all(Region)[0].id)
        shapes.append(readset_shape(reads))
        with store.track_reads() as reads:
            store.filter(PeeringRouter, Expr("name", Op.EQUAL, "pr1"))
        shapes.append(readset_shape(reads))
        pop = store.filter(Pop, Expr("name", Op.EQUAL, "pop01"))[0]
        with store.track_reads() as reads:
            store.filter(
                Pop,
                And(
                    Expr("name", Op.EQUAL, "pop01"),
                    Expr("region", Op.EQUAL, pop.region_id),
                ),
            )
        shapes.append(readset_shape(reads))
        with store.track_reads() as reads:
            store.filter(Region, Expr("name", Op.STARTSWITH, "na-"))
        shapes.append(readset_shape(reads))
        with store.track_reads() as reads:
            store.all(Device)
        shapes.append(readset_shape(reads))
        return shapes

    def test_sharded_reads_record_exactly_like_plain(self, sharded):
        plain = self.build(ObjectStore())
        self.build(sharded)
        assert self.observe(sharded) == self.observe(plain)
