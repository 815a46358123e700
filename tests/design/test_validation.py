"""Tests that each design rule trips on exactly the error it guards.

``TestBrokenDesignCorpus`` breaks the rig one way per case and holds the
complete ``validate()`` list; ``TestIntegerRulesEqualIpaddress`` holds the
integer prefix rules to their ``ipaddress`` forms in
``tests/design/validation_reference.py``.
"""

import ipaddress
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import seed_environment
from repro.common.errors import IntegrityError, ValidationError
from repro.design import validation
from repro.design.ipam import IpAllocator
from repro.design.validation import (
    rule_agg_members_on_same_device,
    rule_bgp_asn_consistency,
    rule_bgp_sessions_share_subnet,
    rule_bundle_members_consistent,
    rule_circuit_endpoints,
    rule_no_overlapping_p2p_subnets,
    rule_p2p_prefixes_same_subnet,
    rule_port_capacity,
    validate,
)
from repro.fbnet.models import (
    AggregatedInterface,
    BgpSessionType,
    BgpV6Session,
    Circuit,
    CircuitStatus,
    Linecard,
    LinkGroup,
    BgpV4Session,
    NetworkSwitch,
    PhysicalInterface,
    PrefixPool,
    V4Prefix,
    V6Prefix,
)
from repro.fbnet.fields import format_address
from repro.fbnet.store import ChangeOp, ChangeRecord, ObjectStore

from tests.design import validation_reference as reference


@pytest.fixture
def rig(store, env):
    """Two devices with linecards, aggs, and a correct bundle + session."""
    lcm = env.profiles["Switch_Vendor2"].related("linecard_model")
    devices, aggs, pifs, lcs = [], [], [], []
    for i in (1, 2):
        device = store.create(
            NetworkSwitch, name=f"psw{i}",
            hardware_profile=env.profiles["Switch_Vendor2"],
        )
        lc = store.create(Linecard, device=device, slot=1, linecard_model=lcm)
        agg = store.create(AggregatedInterface, name="ae0", device=device, number=0)
        pif = store.create(
            PhysicalInterface, name="et1/0", linecard=lc, port=0, agg_interface=agg
        )
        devices.append(device)
        aggs.append(agg)
        pifs.append(pif)
        lcs.append(lc)
    bundle = store.create(
        LinkGroup, name="psw1--psw2", a_agg_interface=aggs[0], z_agg_interface=aggs[1]
    )
    circuit = store.create(
        Circuit, name="c1", a_interface=pifs[0], z_interface=pifs[1],
        link_group=bundle, status=CircuitStatus.PRODUCTION,
    )
    a_pref = store.create(V6Prefix, prefix="2401:db00::/127", interface=aggs[0])
    z_pref = store.create(V6Prefix, prefix="2401:db00::1/127", interface=aggs[1])
    session = store.create(
        BgpV6Session, device=devices[0], peer_device=devices[1],
        session_type=BgpSessionType.EBGP, local_asn=65001, peer_asn=65002,
        local_ip="2401:db00::", peer_ip="2401:db00::1",
    )
    return {
        "devices": devices, "aggs": aggs, "pifs": pifs, "lcs": lcs,
        "bundle": bundle, "circuit": circuit, "session": session,
        "prefixes": (a_pref, z_pref),
    }


class TestCleanNetworkPasses:
    def test_no_violations(self, store, rig):
        assert validate(store) == []


class TestCircuitEndpoints:
    def test_missing_endpoint(self, store, rig):
        store.update(rig["circuit"], z_interface=None)
        violations = rule_circuit_endpoints(store)
        assert any("two physical interfaces" in v for v in violations)

    def test_planned_circuits_exempt(self, store, rig):
        store.update(
            rig["circuit"], z_interface=None, status=CircuitStatus.PLANNED
        )
        assert rule_circuit_endpoints(store) == []

    def test_same_device_endpoints(self, store, rig, env):
        lcm = env.profiles["Switch_Vendor2"].related("linecard_model")
        pif2 = store.create(
            PhysicalInterface, name="et1/1", linecard=rig["lcs"][0], port=1
        )
        store.update(rig["circuit"], z_interface=pif2)
        violations = rule_circuit_endpoints(store)
        assert any("both endpoints on device" in v for v in violations)

    def test_same_interface_twice(self, store, rig):
        store.update(rig["circuit"], z_interface=rig["pifs"][0])
        violations = rule_circuit_endpoints(store)
        assert any("same interface" in v for v in violations)


class TestPrefixRules:
    def test_mismatched_p2p_subnets(self, store, rig):
        a_pref, _ = rig["prefixes"]
        store.update(a_pref, prefix="2401:db00::8/127")
        violations = rule_p2p_prefixes_same_subnet(store)
        assert any("different subnets" in v for v in violations)

    def test_duplicate_prefix_on_other_family_object(self, store, rig):
        # The store's unique constraint already blocks exact duplicates;
        # the rule also reports them if present via direct load (a replayed
        # record is applied as written, not re-checked).
        assert rule_no_overlapping_p2p_subnets(store) == []
        a_pref, z_pref = rig["prefixes"]
        other = store.create(
            AggregatedInterface, name="ae7", device=rig["devices"][0], number=7
        )
        with pytest.raises(IntegrityError, match="unique"):
            store.create(V6Prefix, prefix=a_pref.prefix, interface=other)
        store.apply_record(ChangeRecord(
            99, ChangeOp.CREATE, "V6Prefix", 999,
            {"interface": other.id, "pool": None, "prefix": a_pref.prefix},
        ))
        violations = rule_no_overlapping_p2p_subnets(store)
        # It shares the bundle's /127 with both of the bundle's ends.
        assert len(violations) == 2 and all("(object 999)" in v for v in violations)
        for end in (a_pref, z_pref):
            assert any(f"(object {end.id})" in v for v in violations)

    @pytest.mark.parametrize(
        "probe", ["10.128.0.3/30", "10.128.0.1/32", "10.128.0.0/24"],
    )
    def test_prefix_covering_another_bundles_subnet(self, store, rig, probe):
        """A prefix on a third interface that covers, or sits in, a bundle's
        /31 overlaps both of its ends; the two ends alone do not overlap."""
        a_agg, z_agg = rig["aggs"]
        ends = [
            store.create(V4Prefix, prefix="10.128.0.0/31", interface=a_agg),
            store.create(V4Prefix, prefix="10.128.0.1/31", interface=z_agg),
        ]
        assert rule_no_overlapping_p2p_subnets(store) == []
        third = store.create(
            AggregatedInterface, name="ae7", device=rig["devices"][0], number=7
        )
        store.create(V4Prefix, prefix=probe, interface=third)
        violations = rule_no_overlapping_p2p_subnets(store)
        assert len(violations) == 2 and all(probe in v for v in violations)
        for end in ends:
            assert any(f"{end.prefix} (object {end.id})" in v for v in violations)

    def test_shared_subnet_off_a_bundle(self, store, rig):
        """Two prefixes in one /127 are a bundle's ends only if their
        interfaces are that bundle's two aggregates."""
        a_pref, z_pref = rig["prefixes"]
        other = store.create(
            AggregatedInterface, name="ae7", device=rig["devices"][0], number=7
        )
        store.update(a_pref, interface=other)
        [violation] = rule_no_overlapping_p2p_subnets(store)
        assert a_pref.prefix in violation and z_pref.prefix in violation


class TestMembershipRules:
    def test_agg_member_wrong_device(self, store, rig):
        store.update(rig["pifs"][0], agg_interface=rig["aggs"][1])
        violations = rule_agg_members_on_same_device(store)
        assert any("different device" in v for v in violations)

    def test_bundle_member_wrong_agg(self, store, rig, env):
        other_agg = store.create(
            AggregatedInterface, name="ae9", device=rig["devices"][0], number=9
        )
        store.update(rig["pifs"][0], agg_interface=other_agg)
        violations = rule_bundle_members_consistent(store)
        assert any("not on link group" in v for v in violations)


class TestBgpRules:
    def test_ebgp_must_share_subnet(self, store, rig):
        store.update(rig["session"], peer_ip="2401:db00::9")
        violations = rule_bgp_sessions_share_subnet(store)
        assert any("common connected subnet" in v for v in violations)

    def test_ebgp_equal_asn_rejected(self, store, rig):
        store.update(rig["session"], peer_asn=65001)
        violations = rule_bgp_asn_consistency(store)
        assert any("ASNs equal" in v for v in violations)

    def test_ibgp_differing_asn_rejected(self, store, rig):
        store.update(rig["session"], session_type=BgpSessionType.IBGP)
        violations = rule_bgp_asn_consistency(store)
        assert any("ASNs differ" in v for v in violations)


class TestPortCapacity:
    def test_over_capacity_flagged(self, store, env, rig):
        # Shrink the profile's capacity below current usage.
        profile = env.profiles["Switch_Vendor2"]
        small_lcm = store.create(
            type(profile.related("linecard_model")),
            name="LC-tiny", port_count=1, port_speed_mbps=10_000,
        )
        store.update(profile, slot_count=1, linecard_model=small_lcm)
        lcm = small_lcm
        device = rig["devices"][0]
        lc2 = store.create(Linecard, device=device, slot=2, linecard_model=lcm)
        store.create(PhysicalInterface, name="et2/0", linecard=lc2, port=0)
        violations = rule_port_capacity(store)
        assert any("exceed hardware" in v for v in violations)


# -- the broken-design corpus: one way to break the rig per case, and the
# complete list validate() must return for it.

def _circuit_missing_endpoint(store, env, rig):
    store.update(rig["circuit"], z_interface=None)
    a_pif = rig["pifs"][0]
    return [f"circuit c1: must be associated with two physical interfaces (a={a_pif}, z=None)"]


def _ends_in_different_subnets(store, env, rig):
    store.update(rig["prefixes"][0], prefix="2401:db00::8/127")
    return ["link group psw1--psw2: v6 endpoint addresses belong to different "
            "subnets (2401:db00::8/127 vs 2401:db00::/127)"]


def _prefix_covering_a_bundles_subnet(store, env, rig):
    """The /30-over-/31 probe: a third interface's /30 covers the /31."""
    a_agg, z_agg = rig["aggs"]
    a = store.create(V4Prefix, prefix="10.128.0.0/31", interface=a_agg)
    z = store.create(V4Prefix, prefix="10.128.0.1/31", interface=z_agg)
    third = store.create(AggregatedInterface, name="ae7", device=rig["devices"][0], number=7)
    probe = store.create(V4Prefix, prefix="10.128.0.3/30", interface=third)
    return [f"prefix 10.128.0.3/30 (object {probe.id}) overlaps 10.128.0.0/31 (object {a.id})",
            f"prefix 10.128.0.3/30 (object {probe.id}) overlaps 10.128.0.1/31 (object {z.id})"]


def _subnet_shared_off_a_bundle(store, env, rig):
    a_pref, z_pref = rig["prefixes"]
    other = store.create(AggregatedInterface, name="ae7", device=rig["devices"][0], number=7)
    store.update(a_pref, interface=other)
    return ["link group psw1--psw2: v6 endpoint addresses belong to different "
            "subnets (none vs 2401:db00::/127)",
            f"prefix 2401:db00::1/127 (object {z_pref.id}) overlaps 2401:db00::/127 "
            f"(object {a_pref.id})"]


def _member_on_another_device(store, env, rig):
    store.update(rig["pifs"][0], agg_interface=rig["aggs"][1])
    return ["interface psw1:et1/0 grouped into ae0 which belongs to a different device"]


def _member_off_the_bundle(store, env, rig):
    other = store.create(AggregatedInterface, name="ae9", device=rig["devices"][0], number=9)
    store.update(rig["pifs"][0], agg_interface=other)
    return ["circuit c1: members not on link group psw1--psw2's aggregated interfaces"]


def _ebgp_outside_its_subnet(store, env, rig):
    store.update(rig["session"], peer_ip="2401:db00::9")
    return ["eBGP session 2401:db00::<->2401:db00::9 on psw1: endpoints not in a "
            "common connected subnet"]


def _ebgp_equal_asns(store, env, rig):
    store.update(rig["session"], peer_asn=65001)
    return ["eBGP session 2401:db00::<->2401:db00::1: ASNs equal (65001)"]


def _ibgp_differing_asns(store, env, rig):
    store.update(rig["session"], session_type=BgpSessionType.IBGP)
    return ["iBGP session 2401:db00::<->2401:db00::1: ASNs differ (65001 vs 65002)"]


def _over_port_capacity(store, env, rig):
    profile = env.profiles["Switch_Vendor2"]
    tiny = store.create(type(profile.related("linecard_model")), name="LC-tiny",
                        port_count=1, port_speed_mbps=10_000)
    store.update(profile, slot_count=1, linecard_model=tiny)
    lc2 = store.create(Linecard, device=rig["devices"][0], slot=2, linecard_model=tiny)
    store.create(PhysicalInterface, name="et2/0", linecard=lc2, port=0)
    return [f"device psw1: 2 interfaces exceed hardware profile {profile.name} capacity of 1"]


CORPUS = {
    "circuit_endpoints": _circuit_missing_endpoint,
    "p2p_prefixes_same_subnet": _ends_in_different_subnets,
    "no_overlapping_p2p_subnets": _prefix_covering_a_bundles_subnet,
    "overlap_and_same_subnet": _subnet_shared_off_a_bundle,
    "agg_members_on_same_device": _member_on_another_device,
    "bundle_members_consistent": _member_off_the_bundle,
    "bgp_sessions_share_subnet": _ebgp_outside_its_subnet,
    "bgp_asn_consistency_ebgp": _ebgp_equal_asns,
    "bgp_asn_consistency_ibgp": _ibgp_differing_asns,
    "port_capacity": _over_port_capacity,
}


class TestBrokenDesignCorpus:
    def test_every_rule_has_a_case(self):
        for rule in validation.DEFAULT_RULES:
            assert any(case.startswith(rule.__name__.removeprefix("rule_")) for case in CORPUS)

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_complete_violation_list(self, store, env, rig, case):
        assert validate(store) == []
        expected = CORPUS[case](store, env, rig)
        assert validate(store) == expected
        # The two ipaddress forms agree with the rules that replaced them.
        for rule in ("rule_p2p_prefixes_same_subnet", "rule_bgp_sessions_share_subnet"):
            old = [_as_prefix_text(v) for v in getattr(reference, rule)(store)]
            assert getattr(validation, rule)(store) == old


class TestScopedPrefix:
    def test_refused_so_validation_and_ipam_read_every_row(self, store, env, rig):
        """A zone id parses in ipaddress but not in the interval reader: the
        field refuses it, so validate() and a pool read never meet one."""
        pool = store.create(PrefixPool, name="p", prefix="fe80::/64", version=6)
        with pytest.raises(ValidationError, match="scoped address"):
            store.create(V6Prefix, prefix="fe80::1%eth0/64", interface=rig["aggs"][0], pool=pool)
        with pytest.raises(ValidationError, match="scoped address"):
            store.update(rig["session"], peer_ip="2401:db00::1%eth0")
        assert validate(store) == []
        assert IpAllocator(store, pool).allocated_subnets() == []


# -- the integer rules against their ipaddress forms, on drawn designs.

_NETWORK = re.compile(r"IPv[46]Network\('([^']+)'\)")


def _as_prefix_text(message: str) -> str:
    """A reference message with each set of networks named as the integer
    rule names them: sorted prefix text, ``none`` for an empty set."""
    def names(match: re.Match) -> str:
        nets = [ipaddress.ip_network(text) for text in _NETWORK.findall(match.group(0))]
        return ", ".join(sorted(
            f"{format_address(int(net.network_address), net.version)}/{net.prefixlen}"
            for net in nets
        )) or "none"
    return re.sub(r"\{[^{}]*\}|set\(\)", names, message)


#: Small address spaces, so drawn prefixes and sessions meet.
_BASES = {4: int(ipaddress.ip_address("10.0.0.0")), 6: int(ipaddress.ip_address("2401:db00::"))}
_MAPPED = int(ipaddress.ip_address("::ffff:10.0.0.0"))


def _spell(value: int, version: int, mapped: bool, upper: bool) -> str:
    """An address as a user might type it: v6 in full or compressed, maybe
    upper case, or IPv4-mapped and dotted."""
    if version == 4:
        return str(ipaddress.IPv4Address(value))
    if mapped:
        return f"::ffff:{ipaddress.IPv4Address(value & 0xFFFFFFFF)}"
    if upper:
        return ipaddress.IPv6Address(value).exploded.upper()
    return str(ipaddress.IPv6Address(value))


def _addresses(version: int):
    mapped = st.booleans() if version == 6 else st.just(False)
    return st.tuples(st.integers(0, 15), mapped, st.booleans()).map(
        lambda t: _spell((_MAPPED if t[1] else _BASES[version]) + t[0], version, t[1], t[2])
    )


@st.composite
def _designs(draw):
    """Ops on four devices of two aggregates each: bundles, prefixes of any
    length (host bits set, /31 and /127 pairs on a bundle's ends, IPv4-mapped
    v6) and iBGP and eBGP sessions, all written through the store's fields."""
    ops = []
    for version in (4, 6):
        address, width = _addresses(version), 32 if version == 4 else 128
        length = st.one_of(st.integers(0, width), st.integers(width - 4, width))
        ops += draw(st.lists(st.tuples(st.just("prefix"), st.just(version), st.integers(0, 7),
                                       address, length), max_size=8))
        ops += draw(st.lists(st.tuples(st.just("pair"), st.just(version), st.integers(0, 3),
                                       st.integers(0, 7)), max_size=3))
        ops += draw(st.lists(st.tuples(st.just("session"), st.just(version), st.integers(0, 3),
                                       st.sampled_from(list(BgpSessionType)), address, address),
                             max_size=6))
    return draw(st.permutations(ops))


@settings(max_examples=120, deadline=None)
@given(bundles=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
       ops=_designs())
def test_integer_rules_equal_ipaddress(bundles, ops):
    store = ObjectStore()
    env = seed_environment(store)
    devices = [store.create(NetworkSwitch, name=f"psw{i}",
                            hardware_profile=env.profiles["Switch_Vendor2"]) for i in range(4)]
    aggs = [store.create(AggregatedInterface, name=f"ae{n}", device=device, number=n)
            for device in devices for n in range(2)]
    links = []
    for a, z in bundles:
        links.append(store.create(LinkGroup, name=f"lg{len(links)}",
                                  a_agg_interface=aggs[a], z_agg_interface=aggs[z]))
    models = {4: (V4Prefix, BgpV4Session), 6: (V6Prefix, BgpV6Session)}
    for op in ops:
        kind, version = op[0], op[1]
        prefix_model, session_model = models[version]
        try:
            if kind == "prefix":
                store.create(prefix_model, prefix=f"{op[3]}/{op[4]}", interface=aggs[op[2]])
            elif kind == "pair" and links:
                link = links[op[2] % len(links)]
                first = _BASES[version] + 2 * op[3]
                plen = 31 if version == 4 else 127
                for end, agg in enumerate((link.a_agg_interface, link.z_agg_interface)):
                    text = str(ipaddress.ip_address(first + end))
                    store.create(prefix_model, prefix=f"{text}/{plen}", interface=agg)
            elif kind == "session":
                store.create(session_model, device=devices[op[2]], peer_device=None,
                             session_type=op[3], local_asn=65001, peer_asn=65002,
                             local_ip=op[4], peer_ip=op[5])
        except IntegrityError:  # a prefix or (device, peer) drawn twice
            pass
    assert validation.rule_bgp_sessions_share_subnet(store) == (
        reference.rule_bgp_sessions_share_subnet(store))
    assert validation.rule_p2p_prefixes_same_subnet(store) == [
        _as_prefix_text(v) for v in reference.rule_p2p_prefixes_same_subnet(store)]
