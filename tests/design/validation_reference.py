"""The ``ipaddress`` forms of two design rules, kept as the reference the
integer rules in ``repro.design.validation`` are held to
(``tests/design/test_validation.py``).

Behaviour only: each stored prefix is parsed into an ``ipaddress``
network, and the BGP rule tests every session against every connected
subnet, which is what made a full pass quadratic.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

import ipaddress

from repro.fbnet.models import (
    BgpSessionType,
    BgpV4Session,
    BgpV6Session,
    LinkGroup,
    V4Prefix,
    V6Prefix,
)


def rule_p2p_prefixes_same_subnet(store) -> list[str]:
    """The two ends of a bundle must take addresses from the same subnet."""
    violations = []
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


def rule_bgp_sessions_share_subnet(store) -> list[str]:
    """Both addresses of an eBGP session must fall in one connected subnet."""
    violations = []
    for model, prefix_model in (
        (BgpV4Session, V4Prefix),
        (BgpV6Session, V6Prefix),
    ):
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
