"""Peering and transit turn-up (paper sections 2.1 and 8).

"Provisioning new peering or transit circuits" is one of the paper's
common POP tasks, and the section-8 incident — an ISP session turned up
with a cherry-picked-prefix import policy that wasn't fully supported —
is its cautionary tale.  The tool provides the high-level primitive:

* allocate the interconnect addressing on the PR,
* model the external AS, the peer organization, and the session
  (``peer_device`` is null — the far end is not ours),
* attach the optional import policy,
* and record the ``PeeringLink``.

The companion design rule flags external sessions that lack an import
policy — the check that would have confined the war story.
"""

from __future__ import annotations

import ipaddress

from repro.common.errors import DesignValidationError
from repro.fbnet.base import Model
from repro.fbnet.models import (
    AggregatedInterface,
    AutonomousSystem,
    BgpSessionType,
    BgpV6Session,
    IspPeer,
    PeeringLink,
    PeeringRouter,
    Pop,
    RoutePolicy,
    V6Prefix,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.store import ObjectStore
from repro.design.bundles import next_agg_number
from repro.design.ipam import IpAllocator
from repro.design.materializer import PortAllocator

__all__ = ["PeeringDesignTool", "rule_external_sessions_have_import_policy"]


def rule_external_sessions_have_import_policy(store: ObjectStore) -> list[str]:
    """External eBGP sessions should carry an import policy.

    Not in the default rule set — it is the "latest design requirement"
    of section 8, the kind of rule Robotron grows after an incident.
    """
    violations = []
    for session in store.all(BgpV6Session):
        if session.session_type is not BgpSessionType.EBGP:
            continue
        if session.peer_device_id is not None:
            continue  # internal fabric eBGP, both ends ours
        if session.import_policy_id is None:
            device = session.related("device")
            violations.append(
                f"external session {device.name}->{session.peer_ip} "
                "(AS{}) has no import policy".format(session.peer_asn)
            )
    return violations


class PeeringDesignTool:
    """High-level primitives for peering/transit interconnects."""

    def __init__(
        self,
        store: ObjectStore,
        *,
        local_asn: int = 32934,
        interconnect_pool: str = "pop-p2p-v6",
    ):
        self._store = store
        self.local_asn = local_asn
        self.interconnect_pool = interconnect_pool

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------

    def create_import_policy(
        self, name: str, prefixes: list[str], *, description: str = ""
    ) -> RoutePolicy:
        """A cherry-picked-prefix import policy (validated CIDRs)."""
        for prefix in prefixes:
            try:
                ipaddress.ip_network(prefix)
            except ValueError as exc:
                raise DesignValidationError(
                    f"policy {name}: bad prefix {prefix!r}: {exc}"
                ) from None
        return self._store.create(
            RoutePolicy, name=name, prefixes=list(prefixes),
            description=description,
        )

    # ------------------------------------------------------------------
    # Turn-up / turn-down
    # ------------------------------------------------------------------

    def turn_up(
        self,
        router: Model,
        isp_name: str,
        peer_asn: int,
        *,
        kind: str = "peering",
        import_policy: RoutePolicy | None = None,
    ) -> PeeringLink:
        """Provision one peering/transit interconnect on a PR.

        Allocates a /127, puts our side on a fresh PR interface, models
        the ISP's AS + organization, and creates the external session.
        """
        if not isinstance(router, PeeringRouter):
            raise DesignValidationError(
                f"interconnects terminate on PeeringRouters, not "
                f"{type(router).__name__}"
            )
        if kind not in ("peering", "transit"):
            raise DesignValidationError(f"kind must be peering/transit, not {kind!r}")
        pop = router.related("pop")
        assert isinstance(pop, Pop)
        allocator = IpAllocator.named(self._store, self.interconnect_pool)

        with self._store.transaction():
            asn = self._store.first(
                AutonomousSystem, Expr("asn", Op.EQUAL, peer_asn)
            ) or self._store.create(AutonomousSystem, asn=peer_asn, name=isp_name)
            peer = self._store.first(
                IspPeer, Expr("name", Op.EQUAL, isp_name)
            ) or self._store.create(IspPeer, name=isp_name, autonomous_system=asn)

            # Our side of the interconnect: a dedicated PR interface with
            # one half of a fresh /127; the ISP configures the other half.
            ports = PortAllocator(self._store, router)
            number = next_agg_number(self._store, router)
            agg = self._store.create(
                AggregatedInterface,
                name=f"ae{number}",
                device=router,
                number=number,
                description=f"{kind} to {isp_name}",
            )
            ports.create_interface(
                100_000, description=f"{kind} to {isp_name}", agg_interface=agg
            )
            subnet = allocator.allocate_subnet(127)
            our_ip = str(subnet.network_address)
            their_ip = str(subnet.network_address + 1)
            self._store.create(
                V6Prefix, prefix=f"{our_ip}/127", interface=agg, pool=allocator.pool
            )

            session = self._store.create(
                BgpV6Session,
                device=router,
                peer_device=None,  # the far end belongs to the ISP
                session_type=BgpSessionType.EBGP,
                local_asn=self.local_asn,
                peer_asn=peer_asn,
                local_ip=our_ip,
                peer_ip=their_ip,
                description=f"{kind} {isp_name} AS{peer_asn}",
                import_policy=import_policy,
            )
            return self._store.create(
                PeeringLink,
                isp_peer=peer,
                pop=pop,
                bgp_session=session,
                kind=kind,
            )

    def turn_down(self, link: PeeringLink) -> None:
        """Remove an interconnect: session, addressing, interface, link."""
        with self._store.transaction():
            session = link.related("bgp_session")
            self._store.delete(link)
            if session is None:
                return
            device = session.related("device")
            local_ip = session.local_ip
            self._store.delete(session)
            # The dedicated interconnect interface and its prefix.
            from repro.fbnet.models import (
                AggregatedInterface,
                PhysicalInterface,
                V6Prefix,
            )

            for agg in self._store.filter(
                AggregatedInterface, Expr("device", Op.EQUAL, device.id)
            ):
                prefixes = self._store.filter(
                    V6Prefix, Expr("interface", Op.EQUAL, agg.id)
                )
                if any(p.prefix.split("/")[0] == local_ip for p in prefixes):
                    for pif in self._store.filter(
                        PhysicalInterface, Expr("agg_interface", Op.EQUAL, agg.id)
                    ):
                        self._store.delete(pif)
                    self._store.delete(agg)  # cascades the prefixes
                    break
