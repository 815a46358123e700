"""Design rules: automatic validation of Desired state (paper section 5.1.3).

Network design errors are a major cause of outages.  Robotron embeds rules
that validate objects when translating template and tool inputs into FBNet
objects: data-integrity checks on value and relationship fields, duplicate
avoidance, and cross-object consistency (e.g. "point-to-point IP addresses
of a circuit are rejected if they belong to different subnets", section 1).

Every rule is a function ``rule(store) -> list[str]`` returning
human-readable violations.  :data:`DEFAULT_RULES` bundles them for use as
:class:`~repro.design.changes.DesignChange` validators.  The prefix rules
read a prefix as IPAM does (:func:`~repro.fbnet.fields.prefix_interval`).
"""

from __future__ import annotations

from collections import Counter

from repro.fbnet.fields import format_address, prefix_interval
from repro.fbnet.models import (
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


#: Each prefix model with the IP version of its addresses.
_PREFIX_MODELS = ((V4Prefix, 4), (V6Prefix, 6))


def _intervals(store: ObjectStore, model: type, version: int):
    """Each stored prefix of ``model`` as ``(row, first, last)``: the row and
    the masked interval of its network."""
    for row in store.all(model):
        yield (row, *prefix_interval(row.prefix, version))


def _names(nets: set[tuple[int, int]], version: int) -> str:
    """Networks as sorted prefix text, for a message."""
    width = 32 if version == 4 else 128
    texts = (f"{format_address(a, version)}/{width - (b - a).bit_length()}" for a, b in nets)
    return ", ".join(sorted(texts)) or "none"


def rule_p2p_prefixes_same_subnet(store: ObjectStore) -> list[str]:
    """The two ends of a bundle must take addresses from the same subnet."""
    violations = []
    # Interface id -> the networks of its prefixes, per version, in one pass.
    nets_by_interface: dict[int, dict[int, set]] = {}
    for model, version in _PREFIX_MODELS:
        nets = nets_by_interface[version] = {}
        for row, first, last in _intervals(store, model, version):
            nets.setdefault(row.interface_id, set()).add((first, last))
    for bundle in store.all(LinkGroup):
        a_agg = bundle.related("a_agg_interface")
        z_agg = bundle.related("z_agg_interface")
        if a_agg is None or z_agg is None:
            violations.append(f"link group {bundle.name}: missing an endpoint")
            continue
        for version, nets in nets_by_interface.items():
            a_nets = nets.get(a_agg.id, set())
            z_nets = nets.get(z_agg.id, set())
            if (a_nets or z_nets) and not (a_nets & z_nets):
                violations.append(
                    f"link group {bundle.name}: v{version} endpoint addresses "
                    f"belong to different subnets ({_names(a_nets, version)} "
                    f"vs {_names(z_nets, version)})"
                )
    return violations


def rule_no_overlapping_p2p_subnets(store: ObjectStore) -> list[str]:
    """No two prefixes of a family overlap, save a bundle's two ends: their
    networks' intervals, sorted and swept once."""
    links = {frozenset((bundle.a_agg_interface_id, bundle.z_agg_interface_id))
             for bundle in store.all(LinkGroup)}
    violations = []
    for model, version in _PREFIX_MODELS:
        # (first, last, id, row): the id breaks ties, so no two rows are compared
        blocks = sorted((first, last, row.id, row)
                        for row, first, last in _intervals(store, model, version))
        reaching: list[tuple] = []  # earlier blocks that reach this one's first address
        for first, last, _id, prefix_obj in blocks:
            reaching = [block for block in reaching if block[1] >= first]
            for other_first, other_last, _, other in reaching:
                ends = frozenset((other.interface_id, prefix_obj.interface_id))
                if (other_first, other_last) != (first, last) or ends not in links:
                    violations.append(f"prefix {prefix_obj.prefix} (object {prefix_obj.id}) "
                                      f"overlaps {other.prefix} (object {other.id})")
            reaching.append((first, last, _id, prefix_obj))
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
        pifs = (circuit.related(side) for side in ("a_interface", "z_interface"))
        actual = {pif.agg_interface_id for pif in pifs if pif is not None} - {None}
        if actual and not actual.issubset(expected):
            violations.append(
                f"circuit {circuit.name}: members not on link group "
                f"{bundle.name}'s aggregated interfaces"
            )
    return violations


def rule_bgp_sessions_share_subnet(store: ObjectStore) -> list[str]:
    """Both addresses of an eBGP session (iBGP is not checked) must fall in
    one connected subnet: each is masked once per prefix length in use."""
    violations = []
    for model, (prefix_model, version) in zip((BgpV4Session, BgpV6Session), _PREFIX_MODELS):
        subnets, lengths = set(), set()
        for row, first, last in _intervals(store, prefix_model, version):
            subnets.add((first, last))
            lengths.add(row.prefix.partition("/")[2])
        for session in store.all(model):
            if session.session_type is not BgpSessionType.EBGP:
                continue
            local, peer = session.local_ip, session.peer_ip
            shared = any(
                (net := prefix_interval(f"{local}/{length}", version)) in subnets
                and net == prefix_interval(f"{peer}/{length}", version)
                for length in lengths
            )
            if not shared:
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
    per_device = Counter(pif.device() for pif in store.all(PhysicalInterface))
    for device, used in per_device.items():
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
