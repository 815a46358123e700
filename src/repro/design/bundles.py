"""Shared bundle construction and teardown.

A *bundle* is the unit of connectivity between two devices: an aggregated
interface on each side, N parallel member circuits, a point-to-point
subnet per address family, and optionally a BGP session over the bundle
(paper Figure 4).  Template materialization, the portmap change-plan API,
and the backbone circuit tools all build and tear down bundles through
this module, so the dependency-following logic exists exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DesignValidationError
from repro.fbnet.base import Model
from repro.fbnet.models import (
    AggregatedInterface,
    BgpSessionType,
    BgpV4Session,
    BgpV6Session,
    Circuit,
    CircuitStatus,
    LinkGroup,
    V4Prefix,
    V6Prefix,
)
from repro.fbnet.query import And, Expr, Op
from repro.fbnet.store import ObjectStore

__all__ = ["BundleResult", "build_bundle", "find_bundle", "teardown_bundle"]


def _host_ip(prefix: str) -> str:
    # A stored prefix is canonical ``str(ip_interface)``: its address part
    # is the canonical address.
    return prefix.partition("/")[0]


@dataclass
class BundleResult:
    """Objects created for one bundle."""

    link_group: Model
    a_agg: Model
    z_agg: Model
    circuits: list[Model] = field(default_factory=list)
    prefixes: list[Model] = field(default_factory=list)
    bgp_sessions: list[Model] = field(default_factory=list)


def next_agg_number(store: ObjectStore, device: Model) -> int:
    """The next free ``aeN`` number on ``device``."""
    existing = store.filter(AggregatedInterface, Expr("device", Op.EQUAL, device.id))
    return 1 + max((agg.number for agg in existing), default=-1)


def build_bundle(
    store: ObjectStore,
    a_dev: Model,
    z_dev: Model,
    *,
    a_ports,
    z_ports,
    circuits: int,
    speed_mbps: int,
    v6_alloc,
    v4_alloc=None,
    bgp: BgpSessionType | None = None,
    local_asn: int | None = None,
    peer_asn: int | None = None,
    circuit_names: list[str] | None = None,
    provider: str = "",
) -> BundleResult:
    """Create one complete bundle between ``a_dev`` and ``z_dev``.

    ``a_ports``/``z_ports`` are :class:`~repro.design.materializer.PortAllocator`
    instances for the two devices.  ``circuit_names`` supplies explicit
    circuit ids (defaults to ``<a>--<z>-cN``).
    """
    if a_dev.id == z_dev.id:
        raise DesignValidationError("a bundle cannot connect a device to itself")
    a_num = next_agg_number(store, a_dev)
    a_agg = store.create(
        AggregatedInterface,
        name=f"ae{a_num}",
        device=a_dev,
        number=a_num,
        description=f"bundle to {z_dev.name}",
    )
    z_num = next_agg_number(store, z_dev)
    z_agg = store.create(
        AggregatedInterface,
        name=f"ae{z_num}",
        device=z_dev,
        number=z_num,
        description=f"bundle to {a_dev.name}",
    )
    link_group = store.create(
        LinkGroup,
        name=f"{a_dev.name}--{z_dev.name}",
        a_agg_interface=a_agg,
        z_agg_interface=z_agg,
    )
    result = BundleResult(link_group=link_group, a_agg=a_agg, z_agg=z_agg)

    suffix = 0
    for index in range(circuits):
        a_pif = a_ports.create_interface(
            speed_mbps, description=f"to {z_dev.name}", agg_interface=a_agg
        )
        z_pif = z_ports.create_interface(
            speed_mbps, description=f"to {a_dev.name}", agg_interface=z_agg
        )
        if circuit_names is not None:
            name = circuit_names[index]
        else:
            # Migrated circuits keep their birth names, so a default name
            # may already be taken by a member now living elsewhere.
            suffix += 1
            while store.exists(
                Circuit, Expr("name", Op.EQUAL, f"{link_group.name}-c{suffix}")
            ):
                suffix += 1
            name = f"{link_group.name}-c{suffix}"
        circuit = store.create(
            Circuit,
            name=name,
            a_interface=a_pif,
            z_interface=z_pif,
            link_group=link_group,
            status=CircuitStatus.PROVISIONING,
            speed_mbps=speed_mbps,
            provider=provider,
        )
        result.circuits.append(circuit)

    a_v6, z_v6 = v6_alloc.assign_p2p(a_agg, z_agg)
    result.prefixes.extend([a_v6, z_v6])
    a_v4 = z_v4 = None
    if v4_alloc is not None:
        a_v4, z_v4 = v4_alloc.assign_p2p(a_agg, z_agg)
        result.prefixes.extend([a_v4, z_v4])

    if bgp is not None:
        if local_asn is None or peer_asn is None:
            raise DesignValidationError(
                f"bundle {link_group.name}: BGP requested without both ASNs"
            )
        session = store.create(
            BgpV6Session,
            device=a_dev,
            peer_device=z_dev,
            session_type=bgp,
            local_asn=local_asn,
            peer_asn=peer_asn,
            local_ip=_host_ip(a_v6.prefix),
            peer_ip=_host_ip(z_v6.prefix),
            description=f"{bgp.value} {a_dev.name} <-> {z_dev.name}",
        )
        result.bgp_sessions.append(session)
        if a_v4 is not None and z_v4 is not None:
            session4 = store.create(
                BgpV4Session,
                device=a_dev,
                peer_device=z_dev,
                session_type=bgp,
                local_asn=local_asn,
                peer_asn=peer_asn,
                local_ip=_host_ip(a_v4.prefix),
                peer_ip=_host_ip(z_v4.prefix),
                description=f"{bgp.value} {a_dev.name} <-> {z_dev.name} v4",
            )
            result.bgp_sessions.append(session4)
    return result


def find_bundle(store: ObjectStore, a_dev: Model, z_dev: Model) -> Model | None:
    """The link group between two devices, in either orientation."""
    for name in (f"{a_dev.name}--{z_dev.name}", f"{z_dev.name}--{a_dev.name}"):
        bundle = store.first(LinkGroup, Expr("name", Op.EQUAL, name))
        if bundle is not None:
            return bundle
    return None


def teardown_bundle(store: ObjectStore, link_group: Model) -> None:
    """Delete a bundle and everything hanging off it, dependency-first.

    Follows relationships the way the paper describes circuit deletion
    (section 5.1.2): BGP sessions and prefixes on the bundle's aggregated
    interfaces go first, then member circuits and their physical
    interfaces, then the aggregated interfaces and the link group itself.
    What it deleted is in the journal (``summarize_journal``).
    """
    a_agg = link_group.related("a_agg_interface")
    z_agg = link_group.related("z_agg_interface")
    assert a_agg is not None and z_agg is not None
    a_dev = a_agg.related("device")
    z_dev = z_agg.related("device")
    assert a_dev is not None and z_dev is not None

    with store.transaction():
        # Collect the bundle's interface addresses, then delete the BGP
        # sessions riding on them (not every session between the device
        # pair — parallel bundles each carry their own session).
        bundle_ips: set[str] = set()
        bundle_prefixes: list[Model] = []
        for agg in (a_agg, z_agg):
            for model in (V4Prefix, V6Prefix):
                for prefix in store.filter(model, Expr("interface", Op.EQUAL, agg.id)):
                    bundle_prefixes.append(prefix)
                    bundle_ips.add(_host_ip(prefix.prefix))
        if bundle_ips:
            for model in (BgpV4Session, BgpV6Session):
                sessions = store.filter(
                    model,
                    And(
                        Expr("device", Op.EQUAL, [a_dev.id, z_dev.id]),
                        Expr("local_ip", Op.EQUAL, sorted(bundle_ips)),
                    ),
                )
                for session in sessions:
                    store.delete(session)
        for prefix in bundle_prefixes:
            store.delete(prefix)

        # Member circuits and their endpoint physical interfaces.
        member_pifs: list[Model] = []
        for circuit in store.filter(Circuit, Expr("link_group", Op.EQUAL, link_group.id)):
            for side in ("a_interface", "z_interface"):
                pif = circuit.related(side)
                if pif is not None:
                    member_pifs.append(pif)
            store.delete(circuit)
        for pif in member_pifs:
            store.delete(pif)

        # The aggregated interfaces and the link group.
        store.delete(link_group)
        for agg in (a_agg, z_agg):
            store.delete(agg)
