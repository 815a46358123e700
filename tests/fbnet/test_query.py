"""Tests for the query language: operators, paths, composition, wire format."""

from enum import Enum
from typing import Any

import pytest

from repro.common.errors import QueryError
from repro.fbnet.base import Model, model_registry
from repro.fbnet.fields import ForeignKey
from repro.fbnet.models import (
    AggregatedInterface,
    Circuit,
    CircuitStatus,
    Device,
    Linecard,
    NetworkSwitch,
    PeeringRouter,
    PhysicalInterface,
    Region,
    V6Prefix,
)
from repro.fbnet.query import And, Expr, Not, Op, Or, Query


def resolve_path(obj: Model, path: str) -> list[Any]:
    """Resolve a dotted field ``path`` from ``obj`` to its leaf values.

    Forward FK hops yield at most one next object; reverse-relation hops
    fan out.  Missing links (null FKs) contribute no leaves.  The final
    segment must be a value field (or ``id``); enum values are unwrapped
    to their raw ``.value`` for comparison.

    The per-call reference walk: reads go through ``query.path_plan``,
    which the tests hold to this walk, errors included.
    """
    parts = path.split(".")
    current: list[Model] = [obj]
    for index, part in enumerate(parts):
        is_last = index == len(parts) - 1
        id_follows = parts[index + 1 :] == ["id"]
        next_objects: list[Model] = []
        next_ids: list[int] = []
        leaves: list[Any] = []
        for node in current:
            meta = type(node)._meta
            if part == "id":
                leaves.append(node.id)
                continue
            field = meta.fields.get(part)
            if isinstance(field, ForeignKey):
                # A terminal FK segment, or an FK followed only by ``id``,
                # asks for the id the row itself holds: the target is not
                # resolved through the store just to read it back.
                raw = node.__dict__.get(part)
                if raw is None:
                    continue
                if is_last:
                    leaves.append(raw)
                elif id_follows:
                    next_ids.append(raw)
                else:
                    next_objects.append(node.related(part))
                continue
            if field is not None:
                value = node.__dict__.get(part)
                if isinstance(value, Enum):
                    value = value.value
                leaves.append(value)
                continue
            reverse = model_registry.reverse_relations(type(node))
            if part in reverse:
                next_objects.extend(node.__getattr__(part))
                continue
            raise QueryError(
                f"unknown field {part!r} in path {path!r} on {type(node).__name__}"
            )
        if is_last:
            if next_objects and not leaves:
                raise QueryError(
                    f"path {path!r} ends on a relationship; "
                    "append a value field (e.g. '.name')"
                )
            return leaves
        if next_ids:
            return next_ids
        current = next_objects
        if not current:
            return []
    return []


@pytest.fixture
def network(store, env):
    """A tiny network: one PR, one PSW, a bundle with one circuit."""
    pr = store.create(
        PeeringRouter, name="pr1",
        hardware_profile=env.profiles["Router_Vendor1"], pop=env.pops["pop01"],
    )
    psw = store.create(
        NetworkSwitch, name="psw1",
        hardware_profile=env.profiles["Switch_Vendor2"],
    )
    lcm = env.profiles["Router_Vendor1"].related("linecard_model")
    pr_lc = store.create(Linecard, device=pr, slot=1, linecard_model=lcm)
    psw_lc = store.create(Linecard, device=psw, slot=1, linecard_model=lcm)
    pr_agg = store.create(AggregatedInterface, name="ae0", device=pr, number=0)
    pr_pif = store.create(
        PhysicalInterface, name="et1/0", linecard=pr_lc, port=0, agg_interface=pr_agg
    )
    psw_pif = store.create(PhysicalInterface, name="et1/0", linecard=psw_lc, port=0)
    circuit = store.create(
        Circuit, name="c1", a_interface=pr_pif, z_interface=psw_pif,
        status=CircuitStatus.PRODUCTION,
    )
    store.create(V6Prefix, prefix="2401:db00::1/127", interface=pr_agg)
    return {
        "pr": pr, "psw": psw, "circuit": circuit,
        "pr_pif": pr_pif, "pr_agg": pr_agg,
    }


class TestOperators:
    def test_equal_scalar(self, store, network):
        assert store.filter(Device, Expr("name", Op.EQUAL, "pr1")) == [network["pr"]]

    def test_equal_list_means_any(self, store, network):
        found = store.filter(Device, Expr("name", Op.EQUAL, ["pr1", "psw1"]))
        assert len(found) == 2

    def test_not_equal(self, store, network):
        found = store.filter(Device, Expr("name", Op.NOT_EQUAL, "pr1"))
        assert [d.name for d in found] == ["psw1"]

    def test_regexp(self, store, network):
        assert store.count(Device, Expr("name", Op.REGEXP, r"^p(r|sw)1$")) == 2

    def test_regexp_bad_pattern(self):
        with pytest.raises(QueryError, match="bad regexp"):
            Expr("name", Op.REGEXP, "(")

    def test_contains_and_startswith(self, store, network):
        assert store.count(Device, Expr("name", Op.CONTAINS, "sw")) == 1
        assert store.count(Device, Expr("name", Op.STARTSWITH, "pr")) == 1

    def test_ordered_ops(self, store, network):
        assert store.count(PhysicalInterface, Expr("port", Op.GTE, 0)) == 2
        assert store.count(PhysicalInterface, Expr("port", Op.GT, 0)) == 0
        assert store.count(PhysicalInterface, Expr("port", Op.LTE, 0)) == 2

    def test_ordered_requires_single_rvalue(self):
        with pytest.raises(QueryError, match="exactly one"):
            Expr("port", Op.GT, [1, 2])

    def test_is_null(self, store, network):
        null_agg = store.filter(
            PhysicalInterface, Expr("agg_interface", Op.IS_NULL, True)
        )
        assert [p.id for p in null_agg] == [network["circuit"].z_interface_id]
        not_null = store.filter(
            PhysicalInterface, Expr("agg_interface", Op.IS_NULL, False)
        )
        assert [p.id for p in not_null] == [network["pr_pif"].id]

    def test_enum_compared_by_value(self, store, network):
        assert store.count(Circuit, Expr("status", Op.EQUAL, "production")) == 1

    def test_string_op_coerced(self, store, network):
        assert store.count(Device, Expr("name", "==", "pr1")) == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="unknown operator"):
            Expr("name", "~=", "x")


class TestPaths:
    def test_forward_fk_path(self, store, network):
        found = store.filter(
            PhysicalInterface, Expr("linecard.device.name", Op.EQUAL, "pr1")
        )
        assert found == [network["pr_pif"]]

    def test_terminal_fk_compares_id(self, store, network):
        found = store.filter(
            Circuit, Expr("a_interface", Op.EQUAL, network["pr_pif"].id)
        )
        assert found == [network["circuit"]]

    def test_reverse_relation_path(self, store, network):
        # Devices that own a linecard in slot 1 (reverse hop device<-linecard).
        found = store.filter(Device, Expr("linecards.slot", Op.EQUAL, 1))
        assert len(found) == 2

    def test_reverse_fanout_any_semantics(self, store, network):
        # Device with an agg interface carrying a v6 prefix.
        found = store.filter(
            Device,
            Expr("aggregated_interfaces.v6_prefixes.prefix", Op.STARTSWITH, "2401:"),
        )
        assert found == [network["pr"]]

    def test_unknown_field_raises(self, store, network):
        with pytest.raises(QueryError, match="unknown field"):
            store.filter(Device, Expr("bogus", Op.EQUAL, 1))

    def test_path_ending_on_relationship_raises(self, store, network):
        with pytest.raises(QueryError, match="value field"):
            store.filter(Device, Expr("linecards", Op.EQUAL, 1))

    def test_null_fk_contributes_no_leaves(self, store, network):
        circuit = store.create(Circuit, name="dangling")
        leaves = resolve_path(circuit, "a_interface.name")
        assert leaves == []

    def test_resolve_id(self, store, network):
        assert resolve_path(network["pr"], "id") == [network["pr"].id]

    def test_fk_id_is_read_off_the_row_without_a_store_get(
        self, store, network, monkeypatch
    ):
        pif, agg = network["pr_pif"], network["pr_agg"]
        dangling = store.create(Circuit, name="dangling")
        monkeypatch.setattr(
            store, "get", lambda *args: pytest.fail(f"store.get{args} was called")
        )
        assert Expr("agg_interface", Op.EQUAL, agg.id).matches(pif)
        assert not Expr("agg_interface", Op.EQUAL, agg.id + 1).matches(pif)
        assert resolve_path(pif, "agg_interface.id") == [agg.id]
        # A null FK still contributes no leaf, on either spelling.
        assert resolve_path(dangling, "a_interface") == []
        assert resolve_path(dangling, "a_interface.id") == []


class TestComposition:
    def test_and(self, store, network):
        query = And(
            Expr("name", Op.STARTSWITH, "p"), Expr("name", Op.CONTAINS, "sw")
        )
        assert [d.name for d in store.filter(Device, query)] == ["psw1"]

    def test_or(self, store, network):
        query = Or(Expr("name", Op.EQUAL, "pr1"), Expr("name", Op.EQUAL, "psw1"))
        assert store.count(Device, query) == 2

    def test_not(self, store, network):
        assert store.count(Device, Not(Expr("name", Op.EQUAL, "pr1"))) == 1

    def test_operator_sugar(self, store, network):
        query = ~Expr("name", Op.EQUAL, "pr1") & Expr("name", Op.STARTSWITH, "p")
        assert [d.name for d in store.filter(Device, query)] == ["psw1"]
        query = Expr("name", Op.EQUAL, "pr1") | Expr("name", Op.EQUAL, "psw1")
        assert store.count(Device, query) == 2

    def test_empty_composition_rejected(self):
        with pytest.raises(QueryError):
            And()
        with pytest.raises(QueryError):
            Or()


class TestWireFormat:
    def test_expr_round_trip(self, store, network):
        query = Expr("name", Op.REGEXP, ["^pr", "^psw"])
        revived = Query.from_wire(query.to_wire())
        assert store.count(Device, revived) == 2

    def test_tree_round_trip(self, store, network):
        query = And(
            Or(Expr("name", Op.EQUAL, "pr1"), Expr("name", Op.EQUAL, "psw1")),
            Not(Expr("name", Op.CONTAINS, "sw")),
        )
        revived = Query.from_wire(query.to_wire())
        assert [d.name for d in store.filter(Device, revived)] == ["pr1"]

    def test_none_passes_through(self):
        assert Query.from_wire(None) is None

    def test_bad_wire_rejected(self):
        with pytest.raises(QueryError, match="bad wire"):
            Query.from_wire({"kind": "nope"})
