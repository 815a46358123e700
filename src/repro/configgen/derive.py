"""Deriving per-device config data from FBNet objects (paper Figure 10).

For a given location, Robotron fetches all related objects from FBNet;
for each device it derives the device-specific data — "data for a device
interface depends on the FBNet circuit object the interface connects to"
— and stores it as a Thrift object.  This module performs that derivation
into Figure 8's ``Device`` struct; the producer does not grade its own
work — the struct is checked once, where ``ConfigGenerator._render`` hands
it to the templates.
"""

from __future__ import annotations

from typing import Any

from repro.fbnet.base import Model
from repro.fbnet.models import (
    AclRule,
    AggregatedInterface,
    BgpV4Session,
    BgpV6Session,
    Cluster,
    Device,
    DrainState,
    FirewallPolicy,
    MplsTunnel,
    PhysicalInterface,
    V4Prefix,
    V6Prefix,
)
from repro.fbnet.query import Expr, Op, Or
from repro.fbnet.store import ObjectStore

__all__ = ["derive_device_data", "fetch_location_devices"]

#: Anycast address devices send syslog to (paper section 5.4.1).
SYSLOG_ANYCAST = "2401:db00:ffff::514"


def fetch_location_devices(store: ObjectStore, location: Model) -> list[Model]:
    """All devices at a location (Figure 10 step 1).

    A location may be a Pop/Datacenter (devices via their clusters plus
    role FKs) or a BackboneSite (routers homed at the site).
    """
    devices: dict[int, Model] = {}
    # Devices tied to the location through a role FK (PeeringRouter.pop,
    # BackboneRouter.site, DatacenterRouter.datacenter).
    for device in store.all(Device):
        for fk_name, fk in type(device)._meta.fk_fields.items():
            if fk_name in ("hardware_profile", "cluster"):
                continue
            if isinstance(location, fk.to) and device.__dict__.get(fk_name) == location.id:
                devices[device.id] = device
    # Devices in clusters homed at the location.
    for cluster in store.all(Cluster):
        for fk_name in ("pop", "datacenter"):
            if cluster.__dict__.get(fk_name) == location.id:
                for device in store.filter(Device, Expr("cluster", Op.EQUAL, cluster.id)):
                    devices[device.id] = device
    return sorted(devices.values(), key=lambda d: d.name)


def _derive_aggs(store: ObjectStore, device: Model) -> list[dict[str, Any]]:
    """One IN read per model over the device's aggregate ids, not three reads
    per aggregate; each records the read-set entries the per-aggregate reads
    did, so dirty tracking marks the same devices."""
    aggs = store.filter(AggregatedInterface, Expr("device", Op.EQUAL, device.id))
    if not aggs:
        return []
    ids = [agg.id for agg in aggs]
    v4: dict[int, str] = {}
    v6: dict[int, str] = {}
    for model, prefixes in ((V4Prefix, v4), (V6Prefix, v6)):
        # Ascending ids: the first row per interface is what ``first`` returned.
        for row in store.filter(model, Expr("interface", Op.EQUAL, ids)):
            prefixes.setdefault(row.interface_id, row.prefix)
    members: dict[int, list[Model]] = {agg.id: [] for agg in aggs}
    for pif in store.filter(PhysicalInterface, Expr("agg_interface", Op.EQUAL, ids)):
        members[pif.agg_interface_id].append(pif)
    return sorted(
        (
            {
                "name": agg.name,
                "number": agg.number,
                "v4_prefix": v4.get(agg.id),
                "v6_prefix": v6.get(agg.id),
                "mtu": agg.mtu,
                "description": agg.description,
                "lacp_fast": agg.lacp_fast,
                "pifs": [
                    {
                        "name": pif.name,
                        "description": pif.description,
                        "speed_mbps": pif.speed_mbps,
                    }
                    for pif in sorted(members[agg.id], key=lambda p: p.name)
                ],
            }
            for agg in aggs
        ),
        key=lambda a: a["number"],
    )


def _derive_acls(store: ObjectStore, device: Model) -> list[dict[str, Any]]:
    """The firewall policies applying to this device's role."""
    policies = []
    for policy in store.all(FirewallPolicy):
        if policy.applies_to_role is not device.role:
            continue
        rules = store.filter(AclRule, Expr("policy", Op.EQUAL, policy.id))
        policies.append(
            {
                "name": policy.name,
                "entries": [
                    {
                        "sequence": rule.sequence,
                        "action": rule.action.value,
                        "protocol": rule.protocol,
                        "source": rule.source,
                        "destination": rule.destination,
                        "port": rule.port,
                        "description": rule.description,
                    }
                    for rule in sorted(rules, key=lambda r: r.sequence)
                ],
            }
        )
    return sorted(policies, key=lambda p: p["name"])


def _derive_bgp(store: ObjectStore, device: Model) -> dict[str, Any] | None:
    neighbors: list[dict[str, Any]] = []
    local_asn: int | None = None
    # Drained devices keep their sessions configured but shut down — the
    # drain/undrain procedure that keeps circuit work traffic-safe.
    drained = device.drain_state in (DrainState.DRAINING, DrainState.DRAINED)
    for model, family in ((BgpV4Session, "v4"), (BgpV6Session, "v6")):
        sessions = store.filter(
            model,
            Or(
                Expr("device", Op.EQUAL, device.id),
                Expr("peer_device", Op.EQUAL, device.id),
            ),
        )
        for session in sessions:
            # Each session object describes both endpoints; orient it
            # from this device's perspective (paper section 5.2: both
            # peers' configs are generated from the same objects).
            if session.device_id == device.id:
                local_ip, peer_ip = session.local_ip, session.peer_ip
                my_asn, peer_asn = session.local_asn, session.peer_asn
            else:
                local_ip, peer_ip = session.peer_ip, session.local_ip
                my_asn, peer_asn = session.peer_asn, session.local_asn
            if local_asn is None:
                local_asn = my_asn
            neighbors.append(
                {
                    "peer_ip": peer_ip,
                    "peer_asn": peer_asn,
                    "local_ip": local_ip,
                    "session_type": session.session_type.value,
                    "address_family": family,
                    "description": session.description,
                    "shutdown": drained,
                    "import_policy": (
                        session.related("import_policy").name
                        if session.import_policy_id is not None
                        else ""
                    ),
                }
            )
    if not neighbors:
        return None
    assert local_asn is not None
    return {
        "local_asn": local_asn,
        "router_id": device.loopback_v4 or "",
        "neighbors": sorted(neighbors, key=lambda n: n["peer_ip"]),
    }


def _derive_route_policies(
    store: ObjectStore, bgp: dict[str, Any] | None
) -> list[dict[str, Any]]:
    """The route policies referenced by this device's neighbors."""
    if bgp is None:
        return []
    from repro.fbnet.models import RoutePolicy

    wanted = sorted(
        {n["import_policy"] for n in bgp["neighbors"] if n["import_policy"]}
    )
    policies = []
    for name in wanted:
        policy = store.first(RoutePolicy, Expr("name", Op.EQUAL, name))
        if policy is None:
            continue
        policies.append(
            {
                "name": policy.name,
                "prefixes": list(policy.prefixes),
                "action": policy.action,
            }
        )
    return policies


def _derive_tunnels(store: ObjectStore, device: Model) -> list[dict[str, Any]]:
    tunnels = []
    for tunnel in store.filter(MplsTunnel, Expr("head_device", Op.EQUAL, device.id)):
        tail = tunnel.related("tail_device")
        assert tail is not None
        destination = tail.loopback_v6 or tail.loopback_v4 or ""
        tunnels.append(
            {
                "name": tunnel.name,
                "destination": destination,
                "bandwidth_mbps": tunnel.bandwidth_mbps,
            }
        )
    return sorted(tunnels, key=lambda t: t["name"])


def derive_device_data(
    store: ObjectStore,
    device: Model,
    *,
    syslog_collector: str = SYSLOG_ANYCAST,
) -> dict[str, Any]:
    """Derive one device's config data struct (Figure 8's ``Device``)."""
    data: dict[str, Any] = {
        "name": device.name,
        "vendor": device.vendor().value,
        "role": device.role.value,
        "system": {
            "hostname": device.name,
            "syslog_collector": syslog_collector,
            "loopback_v4": device.loopback_v4,
            "loopback_v6": device.loopback_v6,
            "domain": "example.net",
        },
        "aggs": _derive_aggs(store, device),
        "bgp": _derive_bgp(store, device),
        "tunnels": _derive_tunnels(store, device),
        "acls": _derive_acls(store, device),
    }
    data["route_policies"] = _derive_route_policies(store, data["bgp"])
    return data
