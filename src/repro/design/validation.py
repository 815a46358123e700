"""Design rules: automatic validation of Desired state (paper section 5.1.3).

Network design errors are a major cause of outages.  Robotron embeds rules
that validate objects when translating template and tool inputs into FBNet
objects: data-integrity checks on value and relationship fields, duplicate
avoidance, and cross-object consistency (e.g. "point-to-point IP addresses
of a circuit are rejected if they belong to different subnets", section 1).

Every rule is a function ``rule(store) -> list[str]`` returning
human-readable violations.  :data:`DEFAULT_RULES` bundles them for use as
:class:`~repro.design.changes.DesignChange` validators.
"""

from __future__ import annotations

import ipaddress
from collections import Counter

from repro.fbnet.models import (
    AggregatedInterface,
    BgpSessionType,
    BgpV4Session,
    BgpV6Session,
    Circuit,
    CircuitStatus,
    HardwareProfile,
    LinkGroup,
    PhysicalInterface,
    V4Prefix,
    V6Prefix,
)
from repro.fbnet.store import ObjectStore

__all__ = [
    "DEFAULT_RULES",
    "rule_agg_members_on_same_device",
    "rule_bgp_sessions_share_subnet",
    "rule_bgp_asn_consistency",
    "rule_bundle_members_consistent",
    "rule_circuit_endpoints",
    "rule_no_overlapping_p2p_subnets",
    "rule_p2p_prefixes_same_subnet",
    "rule_port_capacity",
    "validate",
]


def rule_circuit_endpoints(store: ObjectStore) -> list[str]:
    """Active circuits must terminate at two interfaces on different devices."""
    violations = []
    for circuit in store.all(Circuit):
        if circuit.status in (CircuitStatus.PLANNED, CircuitStatus.DECOMMISSIONED):
            continue
        a_pif = circuit.related("a_interface")
        z_pif = circuit.related("z_interface")
        if a_pif is None or z_pif is None:
            violations.append(
                f"circuit {circuit.name}: must be associated with two "
                f"physical interfaces (a={a_pif}, z={z_pif})"
            )
            continue
        if a_pif.id == z_pif.id:
            violations.append(
                f"circuit {circuit.name}: both endpoints are the same interface"
            )
            continue
        a_dev = a_pif.device()
        if a_dev.id == z_pif.device().id:
            violations.append(
                f"circuit {circuit.name}: both endpoints on device {a_dev.name}"
            )
    return violations


def rule_p2p_prefixes_same_subnet(store: ObjectStore) -> list[str]:
    """The two ends of a bundle must take addresses from the same subnet."""
    violations = []
    # Precompute interface id -> subnets, per family, in one pass.
    nets_by_interface: dict[str, dict[int, set]] = {"v4": {}, "v6": {}}
    for model, family in ((V4Prefix, "v4"), (V6Prefix, "v6")):
        for prefix_obj in store.all(model):
            nets_by_interface[family].setdefault(prefix_obj.interface_id, set()).add(
                ipaddress.ip_interface(prefix_obj.prefix).network
            )
    for bundle in store.all(LinkGroup):
        a_agg = bundle.related("a_agg_interface")
        z_agg = bundle.related("z_agg_interface")
        if a_agg is None or z_agg is None:
            violations.append(f"link group {bundle.name}: missing an endpoint")
            continue
        for family in ("v4", "v6"):
            a_nets = nets_by_interface[family].get(a_agg.id, set())
            z_nets = nets_by_interface[family].get(z_agg.id, set())
            if (a_nets or z_nets) and not (a_nets & z_nets):
                violations.append(
                    f"link group {bundle.name}: {family} endpoint addresses "
                    f"belong to different subnets ({a_nets} vs {z_nets})"
                )
    return violations


def rule_no_overlapping_p2p_subnets(store: ObjectStore) -> list[str]:
    """Distinct bundles must not share or overlap p2p subnets."""
    violations = []
    for model in (V4Prefix, V6Prefix):
        seen: dict = {}
        for prefix_obj in store.all(model):
            interface = ipaddress.ip_interface(prefix_obj.prefix)
            if str(interface) in seen:
                violations.append(
                    f"duplicate prefix {interface} "
                    f"(objects {seen[str(interface)]} and {prefix_obj.id})"
                )
            seen[str(interface)] = prefix_obj.id
    return violations


def rule_agg_members_on_same_device(store: ObjectStore) -> list[str]:
    """A physical interface may only join a bundle on its own device."""
    violations = []
    for pif in store.all(PhysicalInterface):
        if pif.agg_interface_id is None:
            continue
        agg = pif.related("agg_interface")
        pif_dev = pif.device()
        if agg is not None and agg.device_id != pif_dev.id:
            violations.append(
                f"interface {pif_dev.name}:{pif.name} grouped into {agg.name} "
                f"which belongs to a different device"
            )
    return violations


def rule_bundle_members_consistent(store: ObjectStore) -> list[str]:
    """A bundle's member circuits must land on the bundle's two aggregates."""
    violations = []
    for circuit in store.all(Circuit):
        if circuit.link_group_id is None:
            continue
        bundle = circuit.related("link_group")
        assert bundle is not None
        expected = {bundle.a_agg_interface_id, bundle.z_agg_interface_id}
        actual = set()
        for side in ("a_interface", "z_interface"):
            pif = circuit.related(side)
            if pif is not None and pif.agg_interface_id is not None:
                actual.add(pif.agg_interface_id)
        if actual and not actual.issubset(expected):
            violations.append(
                f"circuit {circuit.name}: members not on link group "
                f"{bundle.name}'s aggregated interfaces"
            )
    return violations


def rule_bgp_sessions_share_subnet(store: ObjectStore) -> list[str]:
    """Both addresses of a BGP session must fall in one connected subnet."""
    violations = []
    for model, prefix_model in (
        (BgpV4Session, V4Prefix),
        (BgpV6Session, V6Prefix),
    ):
        # All known connected subnets, for membership testing.
        subnets = {
            ipaddress.ip_interface(p.prefix).network for p in store.all(prefix_model)
        }
        for session in store.all(model):
            local = ipaddress.ip_address(session.local_ip)
            peer = ipaddress.ip_address(session.peer_ip)
            shared = any(local in net and peer in net for net in subnets)
            if session.session_type is BgpSessionType.EBGP and not shared:
                violations.append(
                    f"eBGP session {session.local_ip}<->{session.peer_ip} on "
                    f"{session.related('device').name}: endpoints not in a "
                    "common connected subnet"
                )
    return violations


def rule_bgp_asn_consistency(store: ObjectStore) -> list[str]:
    """iBGP sessions join equal ASNs; eBGP sessions join different ASNs."""
    violations = []
    for model in (BgpV4Session, BgpV6Session):
        for session in store.all(model):
            same = session.local_asn == session.peer_asn
            if session.session_type is BgpSessionType.IBGP and not same:
                violations.append(
                    f"iBGP session {session.local_ip}<->{session.peer_ip}: "
                    f"ASNs differ ({session.local_asn} vs {session.peer_asn})"
                )
            if session.session_type is BgpSessionType.EBGP and same:
                violations.append(
                    f"eBGP session {session.local_ip}<->{session.peer_ip}: "
                    f"ASNs equal ({session.local_asn})"
                )
    return violations


def rule_port_capacity(store: ObjectStore) -> list[str]:
    """No device may have more interfaces than its hardware provides."""
    violations = []
    per_device: Counter = Counter()
    device_of: dict = {}
    for pif in store.all(PhysicalInterface):
        device = pif.device()
        per_device[device.id] += 1
        device_of[device.id] = device
    for device_id, used in per_device.items():
        device = device_of[device_id]
        profile = device.related("hardware_profile")
        assert isinstance(profile, HardwareProfile)
        capacity = profile.total_ports()
        if used > capacity:
            violations.append(
                f"device {device.name}: {used} interfaces exceed hardware "
                f"profile {profile.name} capacity of {capacity}"
            )
    return violations


#: The standard rule set applied by design tools before committing.
DEFAULT_RULES = [
    rule_circuit_endpoints,
    rule_p2p_prefixes_same_subnet,
    rule_no_overlapping_p2p_subnets,
    rule_agg_members_on_same_device,
    rule_bundle_members_consistent,
    rule_bgp_sessions_share_subnet,
    rule_bgp_asn_consistency,
    rule_port_capacity,
]


def validate(store: ObjectStore, rules=None) -> list[str]:
    """Run ``rules`` (default: all) against the store; returns violations."""
    violations: list[str] = []
    for rule in rules or DEFAULT_RULES:
        violations.extend(rule(store))
    return violations
