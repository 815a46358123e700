"""Cluster-generation catalog and cluster life-cycle operations.

Figure 12 of the paper tracks the evolution of cluster architectures:
Gen1 POP clusters merged into bigger Gen2 clusters via in-place upgrades,
while DC clusters went through three coexisting generations (Gen1 L2,
Gen2 L3 BGP, Gen3 v6-only) — DC architecture shifts happen by building
new clusters and decommissioning old ones.  This module provides the
per-generation topology templates and the upgrade/decommission
operations the Figure 12 simulation drives.
"""

from __future__ import annotations

from repro.common.errors import DesignValidationError
from repro.fbnet.base import Model
from repro.fbnet.models import (
    BgpSessionType,
    Cluster,
    ClusterGeneration,
    ClusterStatus,
    DeviceStatus,
    LinkGroup,
)
from repro.fbnet.query import Expr, Op, Or
from repro.fbnet.store import ObjectStore
from repro.design.bundles import teardown_bundle
from repro.design.materializer import MaterializedCluster, materialize_cluster
from repro.design.topology import (
    DeviceGroupSpec,
    IpSchemeSpec,
    LinkGroupSpec,
    TopologyTemplate,
    four_post_pop_template,
)

__all__ = [
    "build_cluster",
    "decommission_cluster",
    "template_for_generation",
    "upgrade_pop_cluster_in_place",
]


def _pop_gen1_template() -> TopologyTemplate:
    """Gen1 POP: a small 2-post cluster (2 PRs, 2 PSWs, 4 TORs)."""
    return TopologyTemplate(
        name="pop-gen1-2post",
        device_groups=(
            DeviceGroupSpec("PR", "PeeringRouter", 2, "Router_Vendor1", "pr", 65501),
            DeviceGroupSpec("PSW", "NetworkSwitch", 2, "Switch_Vendor2", "psw", 65101),
            DeviceGroupSpec("TOR", "RackSwitch", 4, "Switch_Vendor2", "tor", None),
        ),
        link_groups=(
            LinkGroupSpec("PSW", "PR", circuits_per_bundle=1, bgp=BgpSessionType.EBGP),
            LinkGroupSpec("TOR", "PSW", circuits_per_bundle=1, bgp=None),
        ),
        ip_scheme=IpSchemeSpec(v6_pool="pop-p2p-v6", v4_pool="pop-p2p-v4"),
    )


def _pop_gen2_template() -> TopologyTemplate:
    """Gen2 POP: the paper's bigger 4-post cluster (Figure 2), with the
    TOR tier the figure shows below the PSW fabric."""
    base = four_post_pop_template(v4_pool="pop-p2p-v4")
    return TopologyTemplate(
        name="pop-gen2-4post",
        device_groups=base.device_groups + (
            DeviceGroupSpec("TOR", "RackSwitch", 8, "Switch_Vendor2", "tor", None),
        ),
        link_groups=base.link_groups + (
            LinkGroupSpec("TOR", "PSW", circuits_per_bundle=2, bgp=None),
        ),
        ip_scheme=base.ip_scheme,
    )


def _dc_gen1_template() -> TopologyTemplate:
    """Gen1 DC: L2 cluster — DRs and PSWs, no BGP inside the cluster."""
    return TopologyTemplate(
        name="dc-gen1-l2",
        device_groups=(
            DeviceGroupSpec("DR", "DatacenterRouter", 2, "Router_Vendor1", "dr", None),
            DeviceGroupSpec("PSW", "NetworkSwitch", 4, "Switch_Vendor2", "psw", None),
            DeviceGroupSpec("TOR", "RackSwitch", 8, "Switch_Vendor2", "tor", None),
        ),
        link_groups=(
            LinkGroupSpec("PSW", "DR", circuits_per_bundle=2, bgp=None),
            LinkGroupSpec("TOR", "PSW", circuits_per_bundle=1, bgp=None),
        ),
        ip_scheme=IpSchemeSpec(v6_pool="dc-p2p-v6", v4_pool="dc-p2p-v4"),
    )


def _dc_gen2_template() -> TopologyTemplate:
    """Gen2 DC: L3 BGP cluster — the transition that created BGPV4Session."""
    return TopologyTemplate(
        name="dc-gen2-l3",
        device_groups=(
            DeviceGroupSpec("DR", "DatacenterRouter", 4, "Router_Vendor1", "dr", 65401),
            DeviceGroupSpec("PSW", "NetworkSwitch", 4, "Switch_Vendor2", "psw", 65201),
            DeviceGroupSpec("TOR", "RackSwitch", 12, "Switch_Vendor2", "tor", 65301),
        ),
        link_groups=(
            LinkGroupSpec("PSW", "DR", circuits_per_bundle=2, bgp=BgpSessionType.EBGP),
            LinkGroupSpec("TOR", "PSW", circuits_per_bundle=2, bgp=BgpSessionType.EBGP),
        ),
        ip_scheme=IpSchemeSpec(v6_pool="dc-p2p-v6", v4_pool="dc-p2p-v4"),
    )


def _dc_gen3_template() -> TopologyTemplate:
    """Gen3 DC: v6-only cluster, built after private IPv4 exhaustion."""
    return TopologyTemplate(
        name="dc-gen3-v6only",
        device_groups=(
            DeviceGroupSpec("DR", "DatacenterRouter", 4, "Router_Vendor1", "dr", 65401),
            DeviceGroupSpec("PSW", "NetworkSwitch", 8, "Switch_Vendor2", "psw", 65201),
            DeviceGroupSpec("TOR", "RackSwitch", 16, "Switch_Vendor2", "tor", 65301),
        ),
        link_groups=(
            LinkGroupSpec("PSW", "DR", circuits_per_bundle=2, bgp=BgpSessionType.EBGP),
            LinkGroupSpec("TOR", "PSW", circuits_per_bundle=2, bgp=BgpSessionType.EBGP),
        ),
        ip_scheme=IpSchemeSpec(v6_pool="dc-p2p-v6", v4_pool=None),
    )


_TEMPLATES = {
    ClusterGeneration.POP_GEN1: _pop_gen1_template,
    ClusterGeneration.POP_GEN2: _pop_gen2_template,
    ClusterGeneration.DC_GEN1: _dc_gen1_template,
    ClusterGeneration.DC_GEN2: _dc_gen2_template,
    ClusterGeneration.DC_GEN3: _dc_gen3_template,
}


def template_for_generation(generation: ClusterGeneration) -> TopologyTemplate:
    """The catalog template for one cluster generation (Figure 12)."""
    return _TEMPLATES[generation]()


def build_cluster(
    store: ObjectStore,
    name: str,
    location: Model,
    generation: ClusterGeneration,
) -> MaterializedCluster:
    """Build a cluster of ``generation`` from its catalog template."""
    result = materialize_cluster(
        store,
        template_for_generation(generation),
        name,
        location,
        generation=generation,
    )
    with store.transaction():
        store.update(result.cluster, status=ClusterStatus.PRODUCTION)
        for device in result.all_devices():
            store.update(device, status=DeviceStatus.PRODUCTION)
    return result


def decommission_cluster(store: ObjectStore, cluster: Cluster) -> None:
    """Tear down a cluster: bundles first, then devices, then the cluster.

    This is how DC architecture shifts retire previous generations
    (Figure 12) — and the end of a DC cluster's life cycle due to
    space/power shifts or hardware refreshes.  What it deleted, cascades
    included, is in the journal (``summarize_journal``).
    """
    with store.transaction():
        devices = _cluster_devices(store, cluster)
        device_ids = [d.id for d in devices]
        bundles = store.filter(
            LinkGroup,
            Or(
                Expr("a_agg_interface.device", Op.EQUAL, device_ids),
                Expr("z_agg_interface.device", Op.EQUAL, device_ids),
            ),
        ) if device_ids else []
        for bundle in bundles:
            teardown_bundle(store, bundle)
        for device in devices:
            store.delete(device)
        store.delete(cluster)


def _cluster_devices(store: ObjectStore, cluster: Cluster) -> list[Model]:
    from repro.fbnet.models import Device

    return store.filter(Device, Expr("cluster", Op.EQUAL, cluster.id))


def upgrade_pop_cluster_in_place(
    store: ObjectStore,
    cluster: Cluster,
    new_generation: ClusterGeneration,
) -> MaterializedCluster:
    """In-place POP architecture upgrade (Figure 12).

    POPs lack the space/power to run old and new clusters side by side,
    so upgrades replace the cluster at the same site under the same name:
    tear down, then rebuild from the new generation's template.
    """
    if new_generation not in (
        ClusterGeneration.POP_GEN1,
        ClusterGeneration.POP_GEN2,
    ):
        raise DesignValidationError(
            f"{new_generation} is not a POP generation"
        )
    pop = cluster.related("pop")
    if pop is None:
        raise DesignValidationError(
            f"cluster {cluster.name} is not a POP cluster"
        )
    name = cluster.name
    with store.transaction():
        decommission_cluster(store, cluster)
        return build_cluster(store, name, pop, new_generation)
