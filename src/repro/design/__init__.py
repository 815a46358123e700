"""Network design: translating human intent into Desired FBNet objects.

This package implements the first stage of Robotron's management life
cycle (paper section 5.1):

* :mod:`repro.design.ipam` — rule-based IP allocation from Desired pools
  (the fix for the ping-for-free-IPs era recounted in section 7);
* :mod:`repro.design.topology` — topology templates for POP/DC fat-trees
  (Figure 7);
* :mod:`repro.design.materializer` — template materialization into FBNet
  objects;
* :mod:`repro.design.portmap` — the portmap change-plan write API
  (Figure 4, section 4.2.2);
* :mod:`repro.design.backbone` — incremental device/circuit design tools
  with dependency resolution (section 5.1.2);
* :mod:`repro.design.validation` — design rules (section 5.1.3);
* :mod:`repro.design.changes` — design-change transactions with audit
  logging and per-type accounting (Figures 15);
* :mod:`repro.design.cluster` — the cluster-generation catalog
  (Figure 12).
"""

from repro.design.backbone import BackboneDesignTool
from repro.design.changes import ChangeSummary, DesignChange
from repro.design.cluster import (
    build_cluster,
    decommission_cluster,
    template_for_generation,
    upgrade_pop_cluster_in_place,
)
from repro.design.concurrency import ChangeCoordinator, DesignConflict
from repro.design.ipam import IpAllocator
from repro.design.materializer import PortAllocator, materialize_cluster
from repro.design.portmap import PortmapChangePlan, PortmapSpec
from repro.design.topology import (
    DeviceGroupSpec,
    IpSchemeSpec,
    LinkGroupSpec,
    TopologyTemplate,
    four_post_pop_template,
)
from repro.design.validation import DEFAULT_RULES, validate

__all__ = [
    "BackboneDesignTool",
    "ChangeCoordinator",
    "ChangeSummary",
    "DEFAULT_RULES",
    "DesignChange",
    "DesignConflict",
    "DeviceGroupSpec",
    "IpAllocator",
    "IpSchemeSpec",
    "LinkGroupSpec",
    "PortAllocator",
    "PortmapChangePlan",
    "PortmapSpec",
    "TopologyTemplate",
    "build_cluster",
    "decommission_cluster",
    "four_post_pop_template",
    "materialize_cluster",
    "template_for_generation",
    "upgrade_pop_cluster_in_place",
    "validate",
]
