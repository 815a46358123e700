"""Template materialization: topology templates → Desired FBNet objects.

Given a topology template, Robotron "constructs 2 BackboneRouter objects
and 4 NetworkSwitch objects ... In total, 94 objects of various types are
created in FBNet" (paper Figure 7).  This module performs that translation:
devices, linecards, physical interfaces, aggregated interfaces, circuits,
link groups, p2p prefixes, and BGP sessions — all inside one transaction,
with every relationship wired (interfaces to aggregates, circuits to
interfaces, prefixes to aggregates, sessions to devices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DesignValidationError
from repro.fbnet.base import Model, model_registry
from repro.fbnet.models import (
    Cluster,
    ClusterGeneration,
    ClusterStatus,
    Datacenter,
    DeviceStatus,
    HardwareProfile,
    Linecard,
    PhysicalInterface,
    Pop,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.design.bundles import build_bundle
from repro.design.ipam import IpAllocator
from repro.design.topology import TopologyTemplate

__all__ = ["MaterializedCluster", "PortAllocator", "materialize_cluster"]


class PortAllocator:
    """Hands out physical ports on a device, creating linecards on demand.

    Ports are consumed in (slot, port) order; the hardware profile bounds
    capacity.  Running out of ports is a design error — the template asked
    for more links than the hardware provides (section 5.1.3).
    """

    def __init__(self, store: ObjectStore, device: Model):
        self._store = store
        self._device = device
        profile = device.related("hardware_profile")
        assert isinstance(profile, HardwareProfile)
        self._profile = profile
        lc_model = profile.related("linecard_model")
        assert lc_model is not None
        self._lc_model = lc_model
        self._slot = 1
        self._port = 0
        self._linecards: dict[int, Model] = {
            lc.slot: lc for lc in store.filter(
                Linecard, Expr("device", Op.EQUAL, device.id)
            )
        }
        # Ports already consumed by existing interfaces on this device
        # (queried per linecard: both hops are index-served).
        self._used: set[tuple[int, int]] = set()
        for linecard in self._linecards.values():
            for pif in store.filter(
                PhysicalInterface, Expr("linecard", Op.EQUAL, linecard.id)
            ):
                self._used.add((linecard.slot, pif.port))

    def next_port(self) -> tuple[Model, int]:
        """Reserve the next free (linecard, port) pair, skipping used ones."""
        while True:
            if self._port >= self._lc_model.port_count:
                self._slot += 1
                self._port = 0
            if self._slot > self._profile.slot_count:
                raise DesignValidationError(
                    f"{self._device.name}: hardware profile {self._profile.name} "
                    f"has no free ports left"
                )
            candidate = (self._slot, self._port)
            self._port += 1
            if candidate not in self._used:
                break
        self._used.add(candidate)
        linecard = self._linecards.get(candidate[0])
        if linecard is None:
            linecard = self._store.create(
                Linecard,
                device=self._device,
                slot=candidate[0],
                linecard_model=self._lc_model,
            )
            self._linecards[candidate[0]] = linecard
        return linecard, candidate[1]

    def create_interface(
        self, speed_mbps: int, description: str = "", agg_interface: Model | None = None
    ) -> Model:
        """Create the next physical interface (named ``et<slot>/<port>``)."""
        linecard, port = self.next_port()
        return self._store.create(
            PhysicalInterface,
            name=f"et{linecard.slot}/{port}",
            linecard=linecard,
            port=port,
            speed_mbps=speed_mbps,
            description=description,
            agg_interface=agg_interface,
        )


@dataclass
class MaterializedCluster:
    """What one template materialization created."""

    cluster: Model
    devices: dict[str, list[Model]] = field(default_factory=dict)
    link_groups: list[Model] = field(default_factory=list)
    circuits: list[Model] = field(default_factory=list)
    bgp_sessions: list[Model] = field(default_factory=list)

    def all_devices(self) -> list[Model]:
        return [dev for group in self.devices.values() for dev in group]


def materialize_cluster(
    store: ObjectStore,
    template: TopologyTemplate,
    cluster_name: str,
    location: Model,
    *,
    generation: ClusterGeneration,
    circuit_name_prefix: str | None = None,
) -> MaterializedCluster:
    """Create every FBNet object for one cluster from ``template``.

    ``location`` is the Pop or Datacenter the cluster lives in.  Runs in a
    single transaction: a validation failure part-way leaves no objects
    behind (section 4.3.2).
    """
    if isinstance(location, Pop):
        cluster_kwargs = {"pop": location}
    elif isinstance(location, Datacenter):
        cluster_kwargs = {"datacenter": location}
    else:
        raise DesignValidationError(
            f"cluster location must be a Pop or Datacenter, got {type(location).__name__}"
        )

    scheme = template.ip_scheme
    with store.transaction():
        cluster = store.create(
            Cluster,
            name=cluster_name,
            generation=generation,
            status=ClusterStatus.TURNUP,
            v6_only=scheme.v6_only,
            **cluster_kwargs,
        )

        v6_alloc = IpAllocator.named(store, scheme.v6_pool)
        v4_alloc = None
        if scheme.v4_pool is not None:
            v4_alloc = IpAllocator.named(store, scheme.v4_pool)

        result = MaterializedCluster(cluster=cluster)

        # 1. Devices, from each group's hardware profile.
        asn_by_group: dict[str, int | None] = {}
        port_allocators: dict[int, PortAllocator] = {}
        for group in template.device_groups:
            model = model_registry.get(group.model_name)
            profile = store.first(
                HardwareProfile, Expr("name", Op.EQUAL, group.hardware_profile)
            )
            if profile is None:
                raise DesignValidationError(
                    f"no hardware profile named {group.hardware_profile!r}"
                )
            devices = []
            for index in range(1, group.count + 1):
                extra = {}
                # Role-specific location FKs (PeeringRouter.pop, etc).
                for fk_name, fk in model._meta.fk_fields.items():
                    if fk_name in ("hardware_profile", "cluster", "peer_device", "device"):
                        continue
                    if isinstance(location, fk.to):
                        extra[fk_name] = location
                device = store.create(
                    model,
                    name=f"{cluster_name}.{group.name_prefix}{index}",
                    hardware_profile=profile,
                    cluster=cluster,
                    status=DeviceStatus.PROVISIONING,
                    **extra,
                )
                devices.append(device)
                port_allocators[device.id] = PortAllocator(store, device)
            result.devices[group.group] = devices
            asn_by_group[group.group] = group.local_asn

        # 2-4. One bundle per (a-device, z-device) pair: aggregated
        # interfaces, member circuits, p2p addressing, BGP over the bundle.
        circuit_stem = circuit_name_prefix or cluster_name
        circuit_seq = 0
        for link in template.link_groups:
            local_asn = asn_by_group[link.a_group]
            peer_asn = asn_by_group[link.z_group]
            if link.bgp is not None and (local_asn is None or peer_asn is None):
                raise DesignValidationError(
                    f"link group {link.a_group}--{link.z_group} wants "
                    "BGP but a device group has no local_asn"
                )
            for a_dev in result.devices[link.a_group]:
                for z_dev in result.devices[link.z_group]:
                    names = []
                    for _ in range(link.circuits_per_bundle):
                        circuit_seq += 1
                        names.append(f"{circuit_stem}-cid-{circuit_seq:05d}")
                    bundle = build_bundle(
                        store,
                        a_dev,
                        z_dev,
                        a_ports=port_allocators[a_dev.id],
                        z_ports=port_allocators[z_dev.id],
                        circuits=link.circuits_per_bundle,
                        speed_mbps=link.circuit_speed_mbps,
                        v6_alloc=v6_alloc,
                        v4_alloc=v4_alloc,
                        bgp=link.bgp,
                        local_asn=local_asn,
                        peer_asn=peer_asn,
                        circuit_names=names,
                    )
                    result.link_groups.append(bundle.link_group)
                    result.circuits.extend(bundle.circuits)
                    result.bgp_sessions.extend(bundle.bgp_sessions)
    return result
