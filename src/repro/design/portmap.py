"""The portmap write API: change-plan driven connectivity edits.

A *portmap* describes the connectivity between a device pair — Figure 4's
two parallel 10G circuits aggregated into a 20G bundle.  The write API of
paper section 4.2.2 "takes a change plan as the input including an old
portmap and a new portmap, and carries out portmap creation, migration,
update, deletion, etc, accordingly, while enforcing network design rules".

The four operations:

* **create** — old is None: build the bundle from scratch;
* **delete** — new is None: tear the bundle down, dependency-first;
* **update** — same device pair, different width/speed: grow or shrink
  the member circuit set in place;
* **migrate** — an endpoint moved to a different device: tear down the
  old side's objects and create new ones on the new device, reusing the
  untouched endpoint's port assignments where possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import DesignValidationError
from repro.fbnet.base import Model
from repro.fbnet.models import (
    BgpSessionType,
    Circuit,
    CircuitStatus,
    Device,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.design.bundles import build_bundle, find_bundle, teardown_bundle
from repro.design.ipam import IpAllocator
from repro.design.materializer import PortAllocator

__all__ = ["PortmapChangePlan", "PortmapSpec", "execute_change_plan"]


@dataclass(frozen=True)
class PortmapSpec:
    """Desired connectivity between one device pair."""

    a_device: str
    z_device: str
    circuits: int
    speed_mbps: int = 10_000
    v6_pool: str = "backbone-p2p-v6"
    v4_pool: str | None = None
    bgp: BgpSessionType | None = None
    local_asn: int | None = None
    peer_asn: int | None = None

    def __post_init__(self) -> None:
        if self.circuits < 1:
            raise DesignValidationError("a portmap needs at least one circuit")
        if self.a_device == self.z_device:
            raise DesignValidationError("a portmap cannot connect a device to itself")

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.a_device, self.z_device))


@dataclass(frozen=True)
class PortmapChangePlan:
    """Input to the portmap write API: the old and new desired portmaps."""

    old: PortmapSpec | None = None
    new: PortmapSpec | None = None

    def __post_init__(self) -> None:
        if self.old is None and self.new is None:
            raise DesignValidationError("change plan needs an old or new portmap")

    @property
    def operation(self) -> str:
        if self.old is None:
            return "create"
        if self.new is None:
            return "delete"
        if self.old.pair == self.new.pair:
            return "update"
        return "migrate"


def _device(store: ObjectStore, name: str) -> Model:
    device = store.first(Device, Expr("name", Op.EQUAL, name))
    if device is None:
        raise DesignValidationError(f"no device named {name!r}")
    return device


def _create(store: ObjectStore, spec: PortmapSpec) -> dict:
    a_dev = _device(store, spec.a_device)
    z_dev = _device(store, spec.z_device)
    if find_bundle(store, a_dev, z_dev) is not None:
        raise DesignValidationError(
            f"a portmap already exists between {spec.a_device} and {spec.z_device}"
        )
    result = build_bundle(
        store,
        a_dev,
        z_dev,
        a_ports=PortAllocator(store, a_dev),
        z_ports=PortAllocator(store, z_dev),
        circuits=spec.circuits,
        speed_mbps=spec.speed_mbps,
        v6_alloc=IpAllocator.named(store, spec.v6_pool),
        v4_alloc=IpAllocator.named(store, spec.v4_pool) if spec.v4_pool else None,
        bgp=spec.bgp,
        local_asn=spec.local_asn,
        peer_asn=spec.peer_asn,
    )
    return {
        "operation": "create",
        "link_group": result.link_group.name,
        "circuits": [c.name for c in result.circuits],
    }


def _delete(store: ObjectStore, spec: PortmapSpec) -> dict:
    a_dev = _device(store, spec.a_device)
    z_dev = _device(store, spec.z_device)
    bundle = find_bundle(store, a_dev, z_dev)
    if bundle is None:
        raise DesignValidationError(
            f"no portmap between {spec.a_device} and {spec.z_device}"
        )
    name = bundle.name
    teardown_bundle(store, bundle)
    return {"operation": "delete", "link_group": name}


def _update(store: ObjectStore, old: PortmapSpec, new: PortmapSpec) -> dict:
    a_dev = _device(store, new.a_device)
    z_dev = _device(store, new.z_device)
    bundle = find_bundle(store, a_dev, z_dev)
    if bundle is None:
        raise DesignValidationError(
            f"no portmap between {new.a_device} and {new.z_device} to update"
        )
    a_agg = bundle.related("a_agg_interface")
    z_agg = bundle.related("z_agg_interface")
    assert a_agg is not None and z_agg is not None
    # The bundle may have been found in the opposite orientation.
    if a_agg.device_id != a_dev.id:
        a_dev, z_dev = z_dev, a_dev
    members = store.filter(Circuit, Expr("link_group", Op.EQUAL, bundle.id))
    added: list[str] = []
    removed: list[str] = []
    if new.circuits > len(members):
        a_ports = PortAllocator(store, a_dev)
        z_ports = PortAllocator(store, z_dev)
        suffix = len(members)
        for _ in range(new.circuits - len(members)):
            a_pif = a_ports.create_interface(
                new.speed_mbps, description=f"to {z_dev.name}", agg_interface=a_agg
            )
            z_pif = z_ports.create_interface(
                new.speed_mbps, description=f"to {a_dev.name}", agg_interface=z_agg
            )
            # Member names may have gaps after deletions; find a free one.
            suffix += 1
            while store.exists(Circuit, Expr("name", Op.EQUAL, f"{bundle.name}-c{suffix}")):
                suffix += 1
            circuit = store.create(
                Circuit,
                name=f"{bundle.name}-c{suffix}",
                a_interface=a_pif,
                z_interface=z_pif,
                link_group=bundle,
                status=CircuitStatus.PROVISIONING,
                speed_mbps=new.speed_mbps,
            )
            added.append(circuit.name)
    elif new.circuits < len(members):
        for circuit in members[new.circuits :]:
            removed.append(circuit.name)
            pifs = [circuit.related("a_interface"), circuit.related("z_interface")]
            store.delete(circuit)
            for pif in pifs:
                if pif is not None:
                    store.delete(pif)
    return {
        "operation": "update",
        "link_group": bundle.name,
        "added": added,
        "removed": removed,
    }


def _migrate(store: ObjectStore, old: PortmapSpec, new: PortmapSpec) -> dict:
    """Move one endpoint of a portmap to a different device.

    Mirrors the paper's circuit-migration description: the old endpoints'
    interface, prefix, and BGP session objects are deleted or
    re-associated, and new ones are created on the target device
    (section 5.1.2).
    """
    shared = old.pair & new.pair
    if len(shared) != 1:
        raise DesignValidationError(
            "a migration must keep exactly one endpoint in place "
            f"(old {sorted(old.pair)}, new {sorted(new.pair)})"
        )
    deleted = _delete(store, old)
    created = _create(store, new)
    return {
        "operation": "migrate",
        "kept_device": next(iter(shared)),
        "old": deleted,
        "new": created,
    }


def execute_change_plan(store: ObjectStore, plan: PortmapChangePlan) -> dict:
    """Carry out one portmap change plan; returns an operation report.

    The caller (the FBNet write API) wraps this in a transaction, so a
    failed plan leaves no partial state.
    """
    operation = plan.operation
    if operation == "create":
        assert plan.new is not None
        return _create(store, plan.new)
    if operation == "delete":
        assert plan.old is not None
        return _delete(store, plan.old)
    if operation == "update":
        assert plan.old is not None and plan.new is not None
        return _update(store, plan.old, plan.new)
    assert plan.old is not None and plan.new is not None
    return _migrate(store, plan.old, plan.new)
