"""End-to-end change propagation: FBNet edit → regenerate → deploy → sweep.

``Robotron.incremental_cycle`` is the steady-state loop: after a design
mutation it must touch exactly the affected devices — regenerate their
configs, push them (content-hash skipping byte-identical ones), and point
the drift sweep at them — while the rest of the fleet is left alone.
"""

import pytest

from repro import obs
from repro.fbnet.models import (
    AggregatedInterface,
    ClusterGeneration,
    Device,
    DrainState,
    PhysicalInterface,
    Region,
)

pytestmark = pytest.mark.incremental


def fleet_versions(robotron):
    return dict(robotron.fleet.config_versions())


class TestIncrementalCycle:
    def test_first_cycle_follows_only_records_since_provisioning(self, robotron):
        """The generator is built on an empty journal; the build's records
        predate every golden config and can mark none of them."""
        cluster = robotron.build_cluster(
            "pop01.c01", robotron.env.pops["pop01"], ClusterGeneration.POP_GEN2
        )
        robotron.boot_fleet()
        assert robotron.provision_cluster(cluster).ok
        provisioned = robotron.store.journal_position
        device = cluster.devices["PR"][0]
        robotron.store.update(device, drain_state=DrainState.DRAINING)
        robotron.store.create(Region, name="antarctica")
        report = robotron.incremental_cycle()
        assert report.generation.records_scanned == 2
        assert robotron.store.journal_position == provisioned + 2
        assert set(report.generation.regenerated) == {device.name}
        assert robotron.incremental_cycle().generation.records_scanned == 0

    def test_noop_cycle_changes_nothing(self, pop_network):
        robotron = pop_network
        versions = fleet_versions(robotron)
        report = robotron.incremental_cycle()
        assert report.ok
        assert not report.generation.regenerated
        assert report.deploy is None
        assert not report.discrepancies
        assert fleet_versions(robotron) == versions

    def test_single_change_propagates_to_one_device(self, pop_network):
        robotron = pop_network
        store = robotron.store
        pif = store.all(PhysicalInterface)[0]
        owner = store.get(AggregatedInterface, pif.agg_interface_id).related(
            "device"
        )
        versions = fleet_versions(robotron)
        store.update(pif, description="recabled to rack 7")

        report = robotron.incremental_cycle()
        assert report.ok
        assert set(report.generation.regenerated) == {owner.name}
        # Deployment saw only that device; the push either committed the
        # new text or content-hash-skipped a byte-identical one.
        assert report.deploy is not None
        assert set(report.deploy.succeeded) | set(report.deploy.skipped) == {
            owner.name
        }
        # The rest of the fleet was never touched.
        for name, version in fleet_versions(robotron).items():
            if name != owner.name:
                assert version == versions[name]
        # Running config converged to the fresh golden.
        golden = robotron.generator.golden[owner.name]
        assert robotron.fleet.get(owner.name).running_config == golden.text
        assert not report.discrepancies

    def test_drain_change_converges_and_second_cycle_is_noop(self, pop_network):
        robotron = pop_network
        device = robotron.cluster.devices["PR"][0]
        robotron.store.update(device, drain_state=DrainState.DRAINING)

        first = robotron.incremental_cycle()
        assert first.ok
        assert set(first.generation.regenerated) == {device.name}
        assert first.deploy is not None and first.deploy.ok

        second = robotron.incremental_cycle()
        assert second.ok
        assert not second.generation.regenerated
        assert second.deploy is None

    def test_unrelated_change_is_a_cheap_noop(self, pop_network):
        robotron = pop_network
        robotron.store.create(Region, name="antarctica")
        report = robotron.incremental_cycle()
        assert not report.generation.regenerated
        assert report.deploy is None
        assert obs.counter("configgen.regenerated").value == 0

    def test_sweep_catches_drift_on_the_changed_device(self, pop_network):
        robotron = pop_network
        device_obj = robotron.cluster.devices["PSW"][0]
        robotron.store.update(device_obj, drain_state=DrainState.DRAINING)
        # An out-of-band edit lands between generation and the sweep: the
        # deploy overwrites it, so sabotage the device to reject commits
        # and leave it drifted.
        emulated = robotron.fleet.get(device_obj.name)
        emulated.fail_next_commits = 1
        report = robotron.incremental_cycle()
        assert not report.ok
        assert device_obj.name in report.deploy.failed
        assert [d.device for d in report.discrepancies] == [device_obj.name]

    def test_full_cycle_equivalence_with_generate_devices(self, pop_network):
        """After a cycle, golden matches a from-scratch full generation."""
        from repro.configgen.generator import ConfigGenerator

        robotron = pop_network
        store = robotron.store
        agg = store.all(AggregatedInterface)[0]
        store.update(agg, mtu=4200)
        robotron.incremental_cycle()
        fresh = ConfigGenerator(store, robotron.generator.configerator)
        fresh.generate_devices(store.all(Device))
        assert {
            name: config.text for name, config in fresh.golden.items()
        } == {
            name: config.text
            for name, config in robotron.generator.golden.items()
        }
