"""Executes workload schedules against a live Robotron store.

The workload generators in :mod:`repro.simulation.workloads` produce
operation schedules; this executor carries them out through the *real*
design tools — cluster builds via the generation catalog, backbone churn
via the backbone tool — wrapping each operation in a
:class:`~repro.design.changes.DesignChange` so the changed-object
accounting of the paper's Figure 15 falls out of the audit log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import DesignValidationError, RobotronError
from repro.design.backbone import BackboneDesignTool
from repro.design.changes import DesignChange
from repro.design.cluster import build_cluster, decommission_cluster
from repro.fbnet.models import (
    BackboneRouter,
    Circuit,
    Cluster,
    ClusterGeneration,
    Rack,
    RackProfile,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.simulation.workloads import DesignChangeOp

__all__ = ["ExecutedChange", "WorkloadExecutor"]


@dataclass
class ExecutedChange:
    """One completed design change and its accounting."""

    week: int
    domain: str
    kind: str
    created: int
    modified: int
    deleted: int
    per_type: dict[str, dict[str, int]]
    #: Devices whose derived config data this change affects.
    touched_devices: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return self.created + self.modified + self.deleted


class WorkloadExecutor:
    """Applies :class:`DesignChangeOp` schedules to a store."""

    def __init__(self, store: ObjectStore, env, *, seed: int = 0):
        self._store = store
        self._env = env
        self._rng = random.Random(seed)
        self._backbone = BackboneDesignTool(store)
        self._cluster_seq = 0
        self._router_seq = 0
        #: Changes that completed, in order.
        self.executed: list[ExecutedChange] = []
        #: Operations skipped because preconditions were missing (e.g. a
        #: delete with nothing left to delete).  Never silently dropped.
        self.skipped: list[tuple[DesignChangeOp, str]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, ops: list[DesignChangeOp]) -> list[ExecutedChange]:
        for op in ops:
            self.execute(op)
        return self.executed

    def execute(self, op: DesignChangeOp) -> ExecutedChange | None:
        handler = getattr(self, f"_op_{op.kind}", None)
        if handler is None:
            raise RobotronError(f"unknown workload op {op.kind!r}")
        try:
            with DesignChange(
                self._store,
                employee_id=f"e{self._rng.randrange(100):03d}",
                ticket_id=f"NET-{len(self.executed) + 1:05d}",
                description=op.kind,
                domain=op.domain,
            ) as change:
                touched = handler(op)
        except DesignValidationError as exc:
            self.skipped.append((op, str(exc)))
            return None
        assert change.summary is not None
        executed = ExecutedChange(
            week=op.week,
            domain=op.domain,
            kind=op.kind,
            created=change.summary.created_total,
            modified=change.summary.modified_total,
            deleted=change.summary.deleted_total,
            per_type=change.summary.per_type(),
            touched_devices=tuple(touched or ()),
        )
        self.executed.append(executed)
        return executed

    # ------------------------------------------------------------------
    # Operation handlers
    # ------------------------------------------------------------------

    def _pick_location(self, generation: ClusterGeneration):
        if generation.value.startswith("pop"):
            return self._rng.choice(list(self._env.pops.values()))
        return self._rng.choice(list(self._env.datacenters.values()))

    def _op_build_cluster(self, op: DesignChangeOp) -> list[str]:
        generation = op.params["generation"]
        location = self._pick_location(generation)
        self._cluster_seq += 1
        name = f"{location.name}.c{self._cluster_seq:03d}"
        result = build_cluster(self._store, name, location, generation)
        return [device.name for device in result.all_devices()]

    def _op_add_rack(self, op: DesignChangeOp) -> list[str]:
        """A rack turn-up: rack object, TOR switch, uplink bundles to PSWs.

        Matches section 2.2's cluster provisioning ingredients — initial
        device configuration, cabling assignment, IP allocation.
        """
        from repro.design.bundles import build_bundle
        from repro.design.ipam import IpAllocator
        from repro.design.materializer import PortAllocator
        from repro.fbnet.models import NetworkSwitch, RackSwitch

        clusters = [
            cluster
            for cluster in self._store.all(Cluster)
            if cluster.datacenter_id is not None
        ]
        if not clusters:
            raise DesignValidationError("no DC cluster to add a rack to")
        cluster = self._rng.choice(clusters)
        profiles = self._store.all(RackProfile)
        existing = self._store.count(Rack, Expr("cluster", Op.EQUAL, cluster.id))
        rack = self._store.create(
            Rack,
            name=f"rack-{existing + 1:03d}",
            cluster=cluster,
            rack_profile=self._rng.choice(profiles),
        )
        tor = self._store.create(
            RackSwitch,
            name=f"{cluster.name}.tor{existing + 1:03d}",
            hardware_profile=self._env.profiles["Switch_Vendor2"],
            cluster=cluster,
        )
        psws = self._store.filter(
            NetworkSwitch, Expr("cluster", Op.EQUAL, cluster.id)
        )
        if not psws:
            raise DesignValidationError(f"cluster {cluster.name} has no PSWs")
        v6_alloc = IpAllocator.named(self._store, "dc-p2p-v6")
        tor_ports = PortAllocator(self._store, tor)
        touched = [tor.name]
        for psw in psws[: min(2, len(psws))]:
            build_bundle(
                self._store,
                tor,
                psw,
                a_ports=tor_ports,
                z_ports=PortAllocator(self._store, psw),
                circuits=2,
                speed_mbps=10_000,
                v6_alloc=v6_alloc,
            )
            touched.append(psw.name)
        return touched

    def _op_add_router(self, op: DesignChangeOp) -> list[str]:
        site = self._rng.choice(list(self._env.backbone_sites.values()))
        self._router_seq += 1
        name = f"bb{self._router_seq:03d}.{site.name}"
        self._backbone.add_router(name, site, "Router_Vendor1")
        # New routers get a circuit toward an existing one when possible,
        # so the backbone stays connected and later ops have targets.
        others = [
            router
            for router in self._store.all(BackboneRouter)
            if router.name != name
        ]
        if others:
            peer = self._rng.choice(others)
            self._backbone.add_circuit(name, peer.name)
            return [name, peer.name]
        return [name]

    def _op_delete_router(self, op: DesignChangeOp) -> list[str]:
        routers = self._store.all(BackboneRouter)
        if len(routers) <= 2:
            raise DesignValidationError("not enough backbone routers to delete one")
        victim = self._rng.choice(routers)
        neighbors = self._bundle_peers(victim.name)
        self._backbone.delete_router(victim.name)
        return [victim.name, *neighbors]

    def _op_add_circuit(self, op: DesignChangeOp) -> list[str]:
        """A long-haul capacity augment: several parallel circuits at once."""
        pair = self._pick_router_pair()
        for _ in range(self._rng.randint(2, 6)):
            self._backbone.add_circuit(pair[0], pair[1])
        return list(pair)

    def _op_migrate_circuit(self, op: DesignChangeOp) -> list[str]:
        circuit, a_name, z_name = self._pick_backbone_circuit()
        routers = [
            router.name
            for router in self._store.all(BackboneRouter)
            if router.name not in (a_name, z_name)
        ]
        if not routers:
            raise DesignValidationError("no third router to migrate toward")
        target = self._rng.choice(routers)
        self._backbone.migrate_circuit(circuit.name, target)
        return [a_name, z_name, target]

    def _op_delete_circuit(self, op: DesignChangeOp) -> list[str]:
        circuit, a_name, z_name = self._pick_backbone_circuit()
        self._backbone.delete_circuit(circuit.name)
        return [a_name, z_name]

    def _op_upgrade_pop_gen2(self, op: DesignChangeOp) -> list[str]:
        from repro.design.cluster import upgrade_pop_cluster_in_place

        candidates = [
            cluster
            for cluster in self._store.all(Cluster)
            if cluster.generation is ClusterGeneration.POP_GEN1
        ]
        if not candidates:
            raise DesignValidationError("no Gen1 POP cluster left to upgrade")
        cluster = self._rng.choice(candidates)
        result = upgrade_pop_cluster_in_place(
            self._store, cluster, ClusterGeneration.POP_GEN2
        )
        return [device.name for device in result.all_devices()]

    def _op_decommission_oldest(self, op: DesignChangeOp) -> list[str]:
        generation = op.params.get("generation")
        candidates = [
            cluster
            for cluster in self._store.all(Cluster)
            if generation is None or cluster.generation is generation
        ]
        if not candidates:
            raise DesignValidationError("no cluster of that generation left")
        cluster = min(candidates, key=lambda c: c.id or 0)
        from repro.fbnet.models import Device

        names = [
            device.name
            for device in self._store.filter(
                Device, Expr("cluster", Op.EQUAL, cluster.id)
            )
        ]
        decommission_cluster(self._store, cluster)
        return names

    # ------------------------------------------------------------------
    # Target selection helpers
    # ------------------------------------------------------------------

    def _pick_router_pair(self) -> tuple[str, str]:
        routers = self._store.all(BackboneRouter)
        if len(routers) < 2:
            raise DesignValidationError("need two backbone routers for a circuit")
        a, z = self._rng.sample(routers, 2)
        return a.name, z.name

    def _pick_backbone_circuit(self):
        # Backbone circuits carry "bbNNN.<site>--..." bundle-derived names;
        # pre-filter on the cheap string before resolving any FK chain.
        candidates = [
            circuit
            for circuit in self._store.all(Circuit)
            if circuit.name.startswith("bb")
        ]
        self._rng.shuffle(candidates)
        for circuit in candidates:
            endpoints = circuit.endpoints()
            if endpoints is None:
                continue
            (a_dev, _a_pif), (z_dev, _z_pif) = endpoints
            if isinstance(a_dev, BackboneRouter) and isinstance(z_dev, BackboneRouter):
                return circuit, a_dev.name, z_dev.name
        raise DesignValidationError("no backbone circuit available")

    def _bundle_peers(self, device_name: str) -> list[str]:
        from repro.fbnet.models import LinkGroup

        peers = set()
        for bundle in self._store.all(LinkGroup):
            if device_name not in bundle.name:
                continue
            a_name, _, z_name = bundle.name.partition("--")
            if a_name == device_name:
                peers.add(z_name)
            elif z_name == device_name:
                peers.add(a_name)
        return sorted(peers)
