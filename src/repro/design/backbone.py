"""Backbone design tools: incremental device and circuit changes.

The backbone "employs a constantly changing asymmetrical architecture"
(paper section 5.1.2): tens of router additions/deletions and hundreds of
circuit additions, migrations, and deletions per month.  These tools give
users high-level primitives — ``add_router``, ``delete_router``,
``add_circuit``, ``migrate_circuit`` — and do the complex object
validation and dependency manipulation in the backend:

* adding or removing an edge router updates the iBGP full mesh by
  creating/deleting session objects involving *all* other edge routers,
  and regenerates the MPLS-TE tunnel mesh;
* migrating a circuit deletes or re-associates the interface, prefix,
  and BGP session objects on one router and creates new ones on the
  other, following FBNet relationship fields.
"""

from __future__ import annotations

from repro.common.errors import DesignValidationError
from repro.fbnet.base import Model
from repro.fbnet.models import (
    BackboneRouter,
    BackboneSite,
    BgpSessionType,
    BgpV6Session,
    Circuit,
    DatacenterRouter,
    Device,
    DeviceStatus,
    HardwareProfile,
    LoopbackInterface,
    MplsTunnel,
    PeeringRouter,
    PrefixPool,
)
from repro.fbnet.query import Expr, Op, Or
from repro.fbnet.store import ObjectStore
from repro.design.bundles import build_bundle, find_bundle, teardown_bundle
from repro.design.ipam import IpAllocator
from repro.design.materializer import PortAllocator
from repro.design.portmap import (
    PortmapChangePlan,
    PortmapSpec,
    execute_change_plan,
)

__all__ = ["BackboneDesignTool"]


class BackboneDesignTool:
    """High-level primitives for incremental backbone design changes."""

    def __init__(
        self,
        store: ObjectStore,
        *,
        backbone_asn: int = 32934,
        p2p_v6_pool: str = "backbone-p2p-v6",
        p2p_v4_pool: str | None = None,
        loopback_v6_pool: str = "backbone-loopback-v6",
    ):
        self._store = store
        self.backbone_asn = backbone_asn
        self.p2p_v6_pool = p2p_v6_pool
        self.p2p_v4_pool = p2p_v4_pool
        self.loopback_v6_pool = loopback_v6_pool

    # ------------------------------------------------------------------
    # Routers
    # ------------------------------------------------------------------

    def add_router(
        self, name: str, site: Model, hardware_profile_name: str
    ) -> Model:
        """Create a backbone router with a loopback allocation."""
        profile = self._store.first(
            HardwareProfile, Expr("name", Op.EQUAL, hardware_profile_name)
        )
        if profile is None:
            raise DesignValidationError(
                f"no hardware profile named {hardware_profile_name!r}"
            )
        if not isinstance(site, BackboneSite):
            raise DesignValidationError("backbone routers live at a BackboneSite")
        with self._store.transaction():
            router = self._store.create(
                BackboneRouter,
                name=name,
                hardware_profile=profile,
                site=site,
                status=DeviceStatus.PROVISIONING,
            )
            self._assign_loopback(router)
        return router

    def _assign_loopback(self, device: Model) -> None:
        loopback = self._store.create(
            LoopbackInterface, name="lo0", device=device, unit=0
        )
        allocator = self._loopback_allocator()
        prefix = allocator.assign_host(loopback)
        self._store.update(device, loopback_v6=prefix.prefix.split("/")[0])

    def delete_router(self, name: str) -> dict[str, int]:
        """The paper's ``delete`` command: remove a router and everything on it.

        Tears down every bundle terminating at the router, removes its
        iBGP mesh sessions and MPLS tunnels, then deletes the router
        object (cascading its linecards, interfaces, and loopbacks).
        """
        router = self._router(name)
        deleted: dict[str, int] = {}

        def merge(counts: dict[str, int]) -> None:
            for key, value in counts.items():
                deleted[key] = deleted.get(key, 0) + value

        with self._store.transaction():
            if self._is_edge_node(router):
                merge(self.leave_mesh(router))
            for bundle in self._bundles_of(router):
                merge(teardown_bundle(self._store, bundle))
            # Cascade removes linecards, loopbacks, physical interfaces,
            # aggregated interfaces, and their prefixes.
            self._store.delete(router)
            deleted[type(router).__name__] = deleted.get(type(router).__name__, 0) + 1
        return deleted

    def _router(self, name: str) -> Model:
        router = self._store.first(Device, Expr("name", Op.EQUAL, name))
        if router is None:
            raise DesignValidationError(f"no device named {name!r}")
        return router

    def _bundles_of(self, device: Model) -> list[Model]:
        from repro.fbnet.models import LinkGroup

        return self._store.filter(
            LinkGroup,
            Or(
                Expr("a_agg_interface.device", Op.EQUAL, device.id),
                Expr("z_agg_interface.device", Op.EQUAL, device.id),
            ),
        )

    # ------------------------------------------------------------------
    # Circuits
    # ------------------------------------------------------------------

    def add_circuit(
        self, a_name: str, z_name: str, *, speed_mbps: int = 100_000
    ) -> dict:
        """Add one circuit between two backbone devices.

        Grows the existing bundle if one exists (long-haul capacity
        augmentation, section 2.3); otherwise creates a new single-circuit
        bundle with fresh addressing.
        """
        a_dev = self._router(a_name)
        z_dev = self._router(z_name)
        bundle = find_bundle(self._store, a_dev, z_dev)
        with self._store.transaction():
            if bundle is None:
                plan = PortmapChangePlan(
                    new=PortmapSpec(
                        a_device=a_name,
                        z_device=z_name,
                        circuits=1,
                        speed_mbps=speed_mbps,
                        v6_pool=self.p2p_v6_pool,
                        v4_pool=self.p2p_v4_pool,
                    )
                )
                return execute_change_plan(self._store, plan)
            members = self._store.count(
                Circuit, Expr("link_group", Op.EQUAL, bundle.id)
            )
            spec = PortmapSpec(
                a_device=a_name,
                z_device=z_name,
                circuits=members + 1,
                speed_mbps=speed_mbps,
                v6_pool=self.p2p_v6_pool,
                v4_pool=self.p2p_v4_pool,
            )
            plan = PortmapChangePlan(old=spec, new=spec)
            return execute_change_plan(self._store, plan)

    def delete_circuit(self, circuit_name: str) -> dict:
        """Delete one circuit; tears down its bundle when it was the last."""
        circuit = self._store.first(Circuit, Expr("name", Op.EQUAL, circuit_name))
        if circuit is None:
            raise DesignValidationError(f"no circuit named {circuit_name!r}")
        with self._store.transaction():
            bundle = circuit.related("link_group")
            pifs = [circuit.related("a_interface"), circuit.related("z_interface")]
            self._store.delete(circuit)
            for pif in pifs:
                if pif is not None:
                    self._store.delete(pif)
            report = {"operation": "delete_circuit", "circuit": circuit_name}
            if bundle is not None:
                remaining = self._store.count(
                    Circuit, Expr("link_group", Op.EQUAL, bundle.id)
                )
                if remaining == 0:
                    teardown_bundle(self._store, bundle)
                    report["bundle_removed"] = bundle.name
            return report

    def migrate_circuit(self, circuit_name: str, new_z_name: str) -> dict:
        """Move one end of a circuit to a different router.

        Deletes or re-associates the existing interface, prefix, and BGP
        session on the old router and creates new ones on the new one
        (paper section 5.1.2): the member leaves its old bundle (tearing
        it down if empty) and joins — or creates — the bundle toward the
        new device.
        """
        circuit = self._store.first(Circuit, Expr("name", Op.EQUAL, circuit_name))
        if circuit is None:
            raise DesignValidationError(f"no circuit named {circuit_name!r}")
        a_pif = circuit.related("a_interface")
        z_pif = circuit.related("z_interface")
        if a_pif is None or z_pif is None:
            raise DesignValidationError(
                f"circuit {circuit_name} is not fully connected"
            )
        a_dev = a_pif.device()
        new_z = self._router(new_z_name)
        if new_z.id == a_dev.id:
            raise DesignValidationError(
                f"cannot migrate {circuit_name} onto its own A-end {a_dev.name}"
            )
        speed = circuit.speed_mbps
        with self._store.transaction():
            old_bundle = circuit.related("link_group")
            # Disconnect: clear associations, delete the old Z interface.
            self._store.update(circuit, z_interface=None, link_group=None)
            self._store.delete(z_pif)
            if old_bundle is not None:
                remaining = self._store.count(
                    Circuit, Expr("link_group", Op.EQUAL, old_bundle.id)
                )
                if remaining == 0:
                    # This member carried the bundle; the A-end pif dies with
                    # it, so reconnect the circuit from scratch afterwards.
                    self._store.update(circuit, a_interface=None)
                    self._store.delete(a_pif)
                    teardown_bundle(self._store, old_bundle)
                    a_pif = None

            target_bundle = find_bundle(self._store, a_dev, new_z)
            if target_bundle is None:
                result = build_bundle(
                    self._store,
                    a_dev,
                    new_z,
                    a_ports=PortAllocator(self._store, a_dev),
                    z_ports=PortAllocator(self._store, z_dev := new_z),
                    circuits=0,
                    speed_mbps=speed,
                    v6_alloc=self._p2p_allocator(6),
                    v4_alloc=self._p2p_allocator(4) if self.p2p_v4_pool else None,
                )
                target_bundle = result.link_group
            t_a_agg = target_bundle.related("a_agg_interface")
            t_z_agg = target_bundle.related("z_agg_interface")
            if t_a_agg.device_id != a_dev.id:
                t_a_agg, t_z_agg = t_z_agg, t_a_agg
            if a_pif is None:
                a_pif = PortAllocator(self._store, a_dev).create_interface(
                    speed, description=f"to {new_z.name}", agg_interface=t_a_agg
                )
            else:
                self._store.update(
                    a_pif, agg_interface=t_a_agg, description=f"to {new_z.name}"
                )
            new_z_pif = PortAllocator(self._store, new_z).create_interface(
                speed, description=f"to {a_dev.name}", agg_interface=t_z_agg
            )
            self._store.update(
                circuit,
                a_interface=a_pif,
                z_interface=new_z_pif,
                link_group=target_bundle,
            )
        return {
            "operation": "migrate_circuit",
            "circuit": circuit_name,
            "a_device": a_dev.name,
            "new_z_device": new_z.name,
            "bundle": target_bundle.name,
        }

    # ------------------------------------------------------------------
    # iBGP mesh and MPLS-TE tunnel mesh over the edge nodes
    # ------------------------------------------------------------------

    def edge_nodes(self) -> list[Model]:
        """The backbone edge: every PR and DR with a loopback."""
        nodes: list[Model] = []
        for model in (PeeringRouter, DatacenterRouter):
            nodes.extend(
                device
                for device in self._store.all(model)
                if device.loopback_v6 is not None
            )
        return nodes

    def _is_edge_node(self, device: Model) -> bool:
        return isinstance(device, (PeeringRouter, DatacenterRouter))

    def join_mesh(self, device: Model) -> dict[str, int]:
        """Add a node to the iBGP full mesh and the MPLS-TE tunnel mesh.

        Creates an iBGP session object and a pair of directional tunnels
        toward *every* existing edge node — the high fan-out dependency
        the paper highlights (sections 1 and 5.1.2).
        """
        if device.loopback_v6 is None:
            raise DesignValidationError(
                f"{device.name} needs a loopback before joining the mesh"
            )
        created = {"BgpV6Session": 0, "MplsTunnel": 0}
        with self._store.transaction():
            for other in self.edge_nodes():
                if other.id == device.id:
                    continue
                if self._mesh_session(device, other) is None:
                    self._store.create(
                        BgpV6Session,
                        device=device,
                        peer_device=other,
                        session_type=BgpSessionType.IBGP,
                        local_asn=self.backbone_asn,
                        peer_asn=self.backbone_asn,
                        local_ip=device.loopback_v6,
                        peer_ip=other.loopback_v6,
                        description=f"ibgp {device.name} <-> {other.name}",
                    )
                    created["BgpV6Session"] += 1
                for head, tail in ((device, other), (other, device)):
                    name = f"te-{head.name}--{tail.name}"
                    if self._store.exists(MplsTunnel, Expr("name", Op.EQUAL, name)):
                        continue
                    self._store.create(
                        MplsTunnel,
                        name=name,
                        head_device=head,
                        tail_device=tail,
                    )
                    created["MplsTunnel"] += 1
        return created

    def leave_mesh(self, device: Model) -> dict[str, int]:
        """Remove a node's iBGP sessions and tunnels from the mesh."""
        deleted = {"BgpV6Session": 0, "MplsTunnel": 0}
        with self._store.transaction():
            sessions = self._store.filter(
                BgpV6Session,
                Or(
                    Expr("device", Op.EQUAL, device.id),
                    Expr("peer_device", Op.EQUAL, device.id),
                ),
            )
            for session in sessions:
                if session.session_type is BgpSessionType.IBGP:
                    self._store.delete(session)
                    deleted["BgpV6Session"] += 1
            tunnels = self._store.filter(
                MplsTunnel,
                Or(
                    Expr("head_device", Op.EQUAL, device.id),
                    Expr("tail_device", Op.EQUAL, device.id),
                ),
            )
            for tunnel in tunnels:
                self._store.delete(tunnel)
                deleted["MplsTunnel"] += 1
        return deleted

    def _mesh_session(self, a: Model, b: Model) -> Model | None:
        for device, peer in ((a, b), (b, a)):
            session = self._store.first(
                BgpV6Session,
                Expr("device", Op.EQUAL, device.id)
                & Expr("peer_ip", Op.EQUAL, peer.loopback_v6),
            )
            if session is not None:
                return session
        return None

    def mesh_is_complete(self) -> bool:
        """Whether the iBGP mesh covers every edge-node pair exactly once."""
        nodes = self.edge_nodes()
        expected = len(nodes) * (len(nodes) - 1) // 2
        sessions = [
            s
            for s in self._store.all(BgpV6Session)
            if s.session_type is BgpSessionType.IBGP
        ]
        return len(sessions) == expected

    # ------------------------------------------------------------------
    # Allocators
    # ------------------------------------------------------------------

    def _p2p_allocator(self, version: int) -> IpAllocator:
        name = self.p2p_v6_pool if version == 6 else self.p2p_v4_pool
        assert name is not None
        pool = self._store.first(PrefixPool, Expr("name", Op.EQUAL, name))
        if pool is None:
            raise DesignValidationError(f"no prefix pool named {name!r}")
        return IpAllocator(self._store, pool)

    def _loopback_allocator(self) -> IpAllocator:
        pool = self._store.first(
            PrefixPool, Expr("name", Op.EQUAL, self.loopback_v6_pool)
        )
        if pool is None:
            raise DesignValidationError(
                f"no prefix pool named {self.loopback_v6_pool!r}"
            )
        return IpAllocator(self._store, pool)
