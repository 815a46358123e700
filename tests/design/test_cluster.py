"""Tests for the cluster-generation catalog and life-cycle operations."""

import pytest

from repro.common.errors import DesignValidationError
from repro.design.cluster import (
    build_cluster,
    decommission_cluster,
    template_for_generation,
    upgrade_pop_cluster_in_place,
)
from repro.design.changes import summarize_journal
from repro.design.validation import validate
from repro.fbnet.models import (
    BgpV4Session,
    BgpV6Session,
    Circuit,
    Cluster,
    ClusterGeneration,
    ClusterStatus,
    Device,
    DeviceStatus,
    LinkGroup,
    V4Prefix,
)
from repro.fbnet.query import Expr, Op


class TestCatalog:
    def test_every_generation_has_a_template(self):
        for generation in ClusterGeneration:
            template = template_for_generation(generation)
            assert template.device_count() >= 4

    def test_gen3_is_v6_only(self):
        template = template_for_generation(ClusterGeneration.DC_GEN3)
        assert template.ip_scheme.v6_only

    def test_gen1_dc_is_l2(self):
        template = template_for_generation(ClusterGeneration.DC_GEN1)
        assert all(link.bgp is None for link in template.link_groups)

    def test_gen2_pop_bigger_than_gen1(self):
        gen1 = template_for_generation(ClusterGeneration.POP_GEN1)
        gen2 = template_for_generation(ClusterGeneration.POP_GEN2)
        assert gen2.device_count() > gen1.device_count()
        assert gen2.bundle_count() > gen1.bundle_count()


class TestBuild:
    def test_build_marks_production(self, store, env):
        result = build_cluster(
            store, "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
        )
        assert result.cluster.status is ClusterStatus.PRODUCTION
        assert all(
            device.status is DeviceStatus.PRODUCTION
            for device in result.all_devices()
        )
        assert validate(store) == []

    def test_v6_only_build_has_no_v4(self, store, env):
        build_cluster(
            store, "dc01.c03", env.datacenters["dc01"], ClusterGeneration.DC_GEN3
        )
        assert store.count(V4Prefix) == 0
        assert store.count(BgpV4Session) == 0
        assert store.count(BgpV6Session) > 0

    def test_l2_build_has_no_bgp(self, store, env):
        build_cluster(
            store, "dc01.c00", env.datacenters["dc01"], ClusterGeneration.DC_GEN1
        )
        assert store.count(BgpV6Session) == 0


class TestDecommission:
    def test_decommission_removes_all(self, store, env):
        result = build_cluster(
            store, "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
        )
        start = store.journal_position
        decommission_cluster(store, result.cluster)
        # 1,001 rows: the 20 linecards the device cascade takes are counted.
        assert summarize_journal(store.journal_since(start)).deleted == {
            "Cluster": 1, "DatacenterRouter": 4, "NetworkSwitch": 4, "RackSwitch": 12,
            "Linecard": 20, "LinkGroup": 64, "AggregatedInterface": 128, "Circuit": 128,
            "PhysicalInterface": 256, "V4Prefix": 128, "V6Prefix": 128,
            "BgpV4Session": 64, "BgpV6Session": 64,
        }
        assert store.count(Cluster) == 0
        assert store.count(Device) == 0
        assert store.count(Circuit) == 0
        assert store.count(LinkGroup) == 0
        assert validate(store) == []

    def test_decommission_frees_address_space(self, store, env):
        from repro.design.ipam import IpAllocator

        result = build_cluster(
            store, "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
        )
        decommission_cluster(store, result.cluster)
        allocator = IpAllocator(store, env.pools["dc-p2p-v6"])
        assert allocator.utilization() == 0.0

    def test_other_clusters_untouched(self, store, env):
        keep = build_cluster(
            store, "dc01.keep", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
        )
        kill = build_cluster(
            store, "dc01.kill", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
        )
        keep_devices = store.count(Device, Expr("cluster", Op.EQUAL, keep.cluster.id))
        decommission_cluster(store, kill.cluster)
        assert (
            store.count(Device, Expr("cluster", Op.EQUAL, keep.cluster.id))
            == keep_devices
        )
        assert validate(store) == []


class TestInPlaceUpgrade:
    def test_pop_gen1_to_gen2(self, store, env):
        result = build_cluster(
            store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN1
        )
        upgraded = upgrade_pop_cluster_in_place(
            store, result.cluster, ClusterGeneration.POP_GEN2
        )
        assert upgraded.cluster.name == "pop01.c01"  # same site, same name
        assert upgraded.cluster.generation is ClusterGeneration.POP_GEN2
        assert store.count(Cluster) == 1
        assert validate(store) == []

    def test_dc_generation_rejected(self, store, env):
        result = build_cluster(
            store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN1
        )
        with pytest.raises(DesignValidationError, match="not a POP generation"):
            upgrade_pop_cluster_in_place(
                store, result.cluster, ClusterGeneration.DC_GEN2
            )

    def test_non_pop_cluster_rejected(self, store, env):
        result = build_cluster(
            store, "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
        )
        with pytest.raises(DesignValidationError, match="not a POP cluster"):
            upgrade_pop_cluster_in_place(
                store, result.cluster, ClusterGeneration.POP_GEN2
            )
