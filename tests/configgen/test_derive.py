"""Derive reads an interface's prefixes and members once per model.

``_derive_aggs`` makes one IN lookup per model over a device's aggregate
ids.  The per-aggregate walk it replaced is kept here as the reference:
for every device of a ``FLEET_224`` design, after random interface,
prefix and LAG edits, both must return the same struct and record the
same ``ReadSet`` — the read-set is what dirty tracking matches journal
records against, so an equal one marks exactly the same devices.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.configgen import derive
from repro.design.fleet import FLEET_224, build_fleet
from repro.fbnet.models import (
    AggregatedInterface,
    Device,
    LinkGroup,
    PhysicalInterface,
    V4Prefix,
    V6Prefix,
)
from repro.fbnet.query import Expr, Op, Or
from repro.fbnet.store import ObjectStore


def reference_aggs(store, device):
    """The per-aggregate walk: two ``first`` reads and one ``filter`` each."""
    aggs = []
    for agg in store.filter(AggregatedInterface, Expr("device", Op.EQUAL, device.id)):
        v4 = store.first(V4Prefix, Expr("interface", Op.EQUAL, agg.id))
        v6 = store.first(V6Prefix, Expr("interface", Op.EQUAL, agg.id))
        members = store.filter(PhysicalInterface, Expr("agg_interface", Op.EQUAL, agg.id))
        aggs.append(
            {
                "name": agg.name,
                "number": agg.number,
                "v4_prefix": v4.prefix if v4 else None,
                "v6_prefix": v6.prefix if v6 else None,
                "mtu": agg.mtu,
                "description": agg.description,
                "lacp_fast": agg.lacp_fast,
                "pifs": [
                    {
                        "name": pif.name,
                        "description": pif.description,
                        "speed_mbps": pif.speed_mbps,
                    }
                    for pif in sorted(members, key=lambda p: p.name)
                ],
            }
        )
    return sorted(aggs, key=lambda a: a["number"])


def derived(store, device):
    """(struct, read-set) of one device's derive."""
    with store.track_reads() as read_set:
        data = derive.derive_device_data(store, device)
    return data, read_set


def assert_equivalent(store, devices):
    for device in devices:
        batched = derived(store, device)
        with mock.patch.object(derive, "_derive_aggs", reference_aggs):
            reference = derived(store, device)
        assert batched == reference, device.name


class _Abort(Exception):
    """Rolls an example's edits back."""


@pytest.fixture(scope="module")
def fleet():
    store = ObjectStore(name="derive-fleet")
    build_fleet(store, FLEET_224)
    return store


def _pick(store, model, index):
    rows = store.all(model)
    return rows[index % len(rows)] if rows else None


def drop_agg(store, agg):
    """Delete an aggregate and the link groups that protect it."""
    ends = Or(
        Expr("a_agg_interface", Op.EQUAL, agg.id), Expr("z_agg_interface", Op.EQUAL, agg.id)
    )
    for group in store.filter(LinkGroup, ends):
        store.delete(group)
    store.delete(agg)


def apply_edit(store, edit, serial):
    """One interface, prefix or LAG edit; ``serial`` keeps new names unique."""
    kind, index, other = edit
    agg = _pick(store, AggregatedInterface, index)
    if kind == "v4" and agg:
        prefix = f"198.18.{serial // 128}.{serial % 128 * 2}/31"
        store.create(V4Prefix, interface=agg, prefix=prefix)
    elif kind == "v6" and agg:
        store.create(V6Prefix, interface=agg, prefix=f"2001:db8:{serial:x}::/127")
    elif kind == "drop_prefix" and (prefix := _pick(store, V6Prefix, index)):
        store.delete(prefix)
    elif kind == "move":
        pif = _pick(store, PhysicalInterface, index)
        target = _pick(store, AggregatedInterface, other) if other % 4 else None
        store.update(pif, agg_interface=target)
    elif kind == "drop_agg" and agg:
        drop_agg(store, agg)
    elif kind == "new_agg":
        device = _pick(store, Device, index)
        number = 100 + serial
        store.create(AggregatedInterface, device=device, number=number, name=f"ae{number}")
    elif kind == "strip":
        device = _pick(store, Device, index)
        for agg in store.filter(AggregatedInterface, Expr("device", Op.EQUAL, device.id)):
            drop_agg(store, agg)
    elif kind == "relabel" and agg:
        store.update(agg, description=f"relabeled {serial}")


edits = st.lists(
    st.tuples(
        st.sampled_from(
            ["v4", "v6", "drop_prefix", "move", "drop_agg", "new_agg", "strip", "relabel"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=12,
)


class TestBatchedDeriveEquivalence:
    def test_built_fleet(self, fleet):
        assert_equivalent(fleet, fleet.all(Device))

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edits=edits)
    def test_after_random_edits(self, fleet, edits):
        with pytest.raises(_Abort), fleet.transaction():
            for serial, edit in enumerate(edits):
                apply_edit(fleet, edit, serial)
            assert_equivalent(fleet, fleet.all(Device))
            raise _Abort

    def test_device_with_no_aggregates(self, fleet):
        with pytest.raises(_Abort), fleet.transaction():
            device = fleet.all(Device)[0]
            apply_edit(fleet, ("strip", 0, 0), 0)
            assert derive.derive_device_data(fleet, device)["aggs"] == []
            assert_equivalent(fleet, [device])
            raise _Abort

    def test_smallest_id_prefix_wins(self, fleet):
        with pytest.raises(_Abort), fleet.transaction():
            agg = fleet.all(AggregatedInterface)[0]
            device = agg.related("device")
            first, second, third = (
                fleet.create(V4Prefix, interface=agg, prefix=f"198.18.0.{2 * n}/31")
                for n in range(3)
            )
            assert first.id < second.id < third.id

            def v4_of_agg():
                aggs = derive.derive_device_data(fleet, device)["aggs"]
                return next(a["v4_prefix"] for a in aggs if a["name"] == agg.name)

            assert v4_of_agg() == first.prefix
            assert_equivalent(fleet, [device])
            fleet.delete(first)
            assert v4_of_agg() == second.prefix
            assert_equivalent(fleet, [device])
            raise _Abort
