"""Tests for the backbone design tools: routers, circuits, meshes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DesignValidationError
from repro.design.backbone import BackboneDesignTool
from repro.design.changes import summarize_journal
from repro.design.validation import validate
from repro.fbnet.models import (
    BackboneRouter,
    BgpSessionType,
    BgpV6Session,
    Circuit,
    DatacenterRouter,
    LinkGroup,
    LoopbackInterface,
    MplsTunnel,
    PeeringRouter,
    PhysicalInterface,
    V6Prefix,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.core.seeds import seed_environment


@pytest.fixture
def tool(store, env):
    return BackboneDesignTool(store)


@pytest.fixture
def routers(store, env, tool):
    site = env.backbone_sites["bbs01"]
    return [
        tool.add_router(f"bb{i}.bbs01", site, "Router_Vendor1") for i in (1, 2, 3)
    ]


def make_edge(store, env, tool, name, model=PeeringRouter):
    extra = {"pop": env.pops["pop01"]} if model is PeeringRouter else {
        "datacenter": env.datacenters["dc01"]
    }
    device = store.create(
        model, name=name, hardware_profile=env.profiles["Router_Vendor1"], **extra
    )
    loopback = store.create(LoopbackInterface, name="lo0", device=device, unit=0)
    prefix = tool._loopback_allocator().assign_host(loopback)
    store.update(device, loopback_v6=prefix.prefix.split("/")[0])
    return device


class TestRouters:
    def test_add_router_assigns_loopback(self, store, tool, routers):
        assert routers[0].loopback_v6 is not None
        assert store.count(LoopbackInterface) == 3
        # Loopbacks are distinct allocations.
        assert len({r.loopback_v6 for r in routers}) == 3

    def test_add_router_requires_backbone_site(self, store, env, tool):
        with pytest.raises(DesignValidationError, match="BackboneSite"):
            tool.add_router("bbX", env.pops["pop01"], "Router_Vendor1")

    def test_delete_router_cleans_everything(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        start = store.journal_position
        tool.delete_router("bb1.bbs01")
        # The journal counts what the cascade took too: the router's linecard
        # and loopback, and the loopback's address beside the bundle's two.
        assert summarize_journal(store.journal_since(start)).deleted == {
            "BackboneRouter": 1, "Linecard": 1, "LoopbackInterface": 1, "V6Prefix": 3,
            "LinkGroup": 1, "AggregatedInterface": 2, "Circuit": 2, "PhysicalInterface": 4,
        }
        assert store.count(BackboneRouter) == 2
        # Its bundle, circuits, interfaces, prefixes are gone too.
        assert store.count(LinkGroup) == 0
        assert store.count(Circuit) == 0
        assert validate(store) == []

    def test_delete_unknown_router(self, tool):
        with pytest.raises(DesignValidationError, match="no device"):
            tool.delete_router("ghost")


class TestCircuits:
    @staticmethod
    def _p2p_prefixes(store):
        return store.count(V6Prefix, Expr("pool.name", Op.EQUAL, "backbone-p2p-v6"))

    def test_add_circuit_creates_bundle(self, store, tool, routers):
        report = tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        assert report["operation"] == "create"
        assert store.count(Circuit) == 1
        assert self._p2p_prefixes(store) == 2

    def test_add_circuit_grows_existing_bundle(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        report = tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        assert report["operation"] == "update"
        assert store.count(Circuit) == 2
        assert store.count(LinkGroup) == 1
        assert self._p2p_prefixes(store) == 2  # the bundle keeps one subnet

    def test_delete_circuit_last_removes_bundle(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        circuit = store.all(Circuit)[0]
        report = tool.delete_circuit(circuit.name)
        assert "bundle_removed" in report
        assert store.count(LinkGroup) == 0
        assert store.count(PhysicalInterface) == 0

    def test_delete_circuit_partial_keeps_bundle(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        circuit = store.all(Circuit)[0]
        tool.delete_circuit(circuit.name)
        assert store.count(LinkGroup) == 1
        assert store.count(Circuit) == 1

    def test_migrate_circuit(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        circuit = store.all(Circuit)[0]
        report = tool.migrate_circuit(circuit.name, "bb3.bbs01")
        assert report["bundle"] == "bb1.bbs01--bb3.bbs01"
        # The old bundle survives with its remaining member.
        assert store.count(LinkGroup) == 2
        assert validate(store) == []

    def test_migrate_sole_circuit_tears_down_old_bundle(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        circuit = store.all(Circuit)[0]
        tool.migrate_circuit(circuit.name, "bb3.bbs01")
        bundles = store.all(LinkGroup)
        assert [b.name for b in bundles] == ["bb1.bbs01--bb3.bbs01"]
        assert validate(store) == []

    def test_migrate_onto_own_a_end_rejected(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        circuit = store.all(Circuit)[0]
        with pytest.raises(DesignValidationError, match="own A-end"):
            tool.migrate_circuit(circuit.name, "bb1.bbs01")

    def test_circuit_endpoints_are_both_ends_or_none(self, store, tool, routers):
        tool.add_circuit("bb1.bbs01", "bb2.bbs01")
        circuit = store.all(Circuit)[0]
        (a_dev, a_pif), (z_dev, z_pif) = circuit.endpoints()
        assert (a_dev.name, z_dev.name) == ("bb1.bbs01", "bb2.bbs01")
        assert (a_pif.id, z_pif.id) == (circuit.a_interface_id, circuit.z_interface_id)
        # Mid-migration one end is disconnected: there is no wiring to derive.
        store.update(circuit, z_interface=None)
        assert circuit.endpoints() is None


class TestMesh:
    def test_join_creates_full_mesh(self, store, env, tool):
        nodes = [make_edge(store, env, tool, f"pr{i}.pop01") for i in range(4)]
        for node in nodes:
            tool.join_mesh(node)
        assert tool.mesh_is_complete()
        ibgp = [
            s for s in store.all(BgpV6Session)
            if s.session_type is BgpSessionType.IBGP
        ]
        assert len(ibgp) == 6  # 4*3/2
        assert store.count(MplsTunnel) == 12  # directional pairs

    def test_join_requires_loopback(self, store, env, tool):
        device = store.create(
            PeeringRouter, name="prX.pop01",
            hardware_profile=env.profiles["Router_Vendor1"], pop=env.pops["pop01"],
        )
        with pytest.raises(DesignValidationError, match="loopback"):
            tool.join_mesh(device)

    def test_join_idempotent(self, store, env, tool):
        nodes = [make_edge(store, env, tool, f"pr{i}.pop01") for i in range(3)]
        for node in nodes:
            tool.join_mesh(node)
        before = store.count(BgpV6Session)
        tool.join_mesh(nodes[0])
        assert store.count(BgpV6Session) == before
        assert tool.mesh_is_complete()

    def test_leave_restores_closure(self, store, env, tool):
        nodes = [make_edge(store, env, tool, f"pr{i}.pop01") for i in range(4)]
        for node in nodes:
            tool.join_mesh(node)
        start = store.journal_position
        tool.leave_mesh(nodes[0])
        summary = summarize_journal(store.journal_since(start))
        assert summary.deleted == {"BgpV6Session": 3, "MplsTunnel": 6}
        # Closure over the remaining nodes: nodes[0] still has a loopback
        # so it still counts as an edge node; remove its loopback marker.
        store.update(nodes[0], loopback_v6=None)
        assert tool.mesh_is_complete()

    def test_mixed_pr_dr_mesh(self, store, env, tool):
        pr = make_edge(store, env, tool, "pr1.pop01", PeeringRouter)
        dr = make_edge(store, env, tool, "dr1.dc01", DatacenterRouter)
        tool.join_mesh(pr)
        tool.join_mesh(dr)
        assert tool.mesh_is_complete()


class TestMeshProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["join", "leave"]), st.integers(0, 4)),
            min_size=1,
            max_size=12,
        )
    )
    def test_mesh_closure_after_arbitrary_ops(self, ops):
        """After any join/leave sequence, sessions == pairs of members.

        Mesh membership is "is an edge node with a loopback" — joining
        assigns the loopback, leaving clears it (the tool fans sessions
        out to every loopback-bearing edge node).
        """
        store = ObjectStore()
        env = seed_environment(store)
        tool = BackboneDesignTool(store)
        nodes = []
        for i in range(5):
            device = store.create(
                PeeringRouter, name=f"pr{i}.pop01",
                hardware_profile=env.profiles["Router_Vendor1"],
                pop=env.pops["pop01"],
            )
            loopback = store.create(
                LoopbackInterface, name="lo0", device=device, unit=0
            )
            prefix = tool._loopback_allocator().assign_host(loopback)
            device._reserved_loopback = prefix.prefix.split("/")[0]
            nodes.append(device)
        members: set[int] = set()
        for op, index in ops:
            node = nodes[index]
            if op == "join" and index not in members:
                store.update(node, loopback_v6=node._reserved_loopback)
                tool.join_mesh(node)
                members.add(index)
            elif op == "leave" and index in members:
                tool.leave_mesh(node)
                store.update(node, loopback_v6=None)
                members.discard(index)
        ibgp = [
            s for s in store.all(BgpV6Session)
            if s.session_type is BgpSessionType.IBGP
        ]
        expected = len(members) * (len(members) - 1) // 2
        assert len(ibgp) == expected
        assert tool.mesh_is_complete()
