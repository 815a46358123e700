"""Failure drills: the war stories of the paper's section 8.

* Stale configs — a config generated before a later design change gets
  deployed and breaks the design; Robotron's staleness check catches it.
* Automation fallbacks — an engineer bypasses Robotron; config monitoring
  detects the drift and restores the golden config.
* Database failover during operation.
"""

import pytest

from repro import Robotron, seed_environment
from repro.fbnet.models import ClusterGeneration, DrainState, Rack, RackProfile
from repro.fbnet.query import Expr, Op


class TestStaleConfigs:
    def test_stale_config_detected_before_deploy(self, pop_network):
        """Engineer A generates, Engineer B changes the design, A deploys.

        The paper's rack-profile story: the deployment of A's stale config
        dropped racks.  Our generator stamps the design position so the
        deployer can warn.
        """
        robotron = pop_network
        device = robotron.fleet.get("pop01.c01.psw1")
        fbnet_device = robotron.store.first(
            __import__("repro.fbnet.models", fromlist=["Device"]).Device,
            Expr("name", Op.EQUAL, device.name),
        )
        # Engineer A generates but does not deploy.
        config_a = robotron.generator.generate_device(fbnet_device)
        assert not robotron.generator.is_stale(config_a)

        # Two minutes of monitoring and an unrelated design change (a new
        # rack profile and rack) move the journal, not what A's config read.
        position = robotron.store.journal_position
        robotron.run(120)
        assert robotron.store.journal_position > position
        profile = robotron.store.create(
            RackProfile, name="new-web-rack", downlinks_per_rack=2
        )
        cluster = fbnet_device.related("cluster")
        robotron.store.create(Rack, name="rack-9", cluster=cluster, rack_profile=profile)
        assert not robotron.generator.is_stale(config_a)

        # Engineer B makes a design change days later: drains the device.
        robotron.store.update(fbnet_device, drain_state=DrainState.DRAINED)

        # A's config is now stale — the check the paper wished for.
        assert robotron.generator.is_stale(config_a)

        # Regenerating clears the staleness.
        config_fresh = robotron.generator.generate_device(fbnet_device)
        assert not robotron.generator.is_stale(config_fresh)


class TestAutomationFallbacks:
    def test_manual_emergency_change_detected_and_curtailed(self, pop_network):
        """Manual changes are not blocked, but config monitoring curtails
        them: detect within the next collection, then restore golden."""
        robotron = pop_network
        device = robotron.fleet.get("pop01.c01.pr1")
        emergency = device.running_config + "interface et7/7\n shutdown\n!\n"
        device.commit(emergency)  # engineer logs in directly

        # Detection was immediate (config-change syslog -> ad-hoc collect).
        assert robotron.confmon.discrepancies
        latest = robotron.confmon.discrepancies[-1]
        assert latest.device == "pop01.c01.pr1"

        # The emergency config was backed up before restoration, so the
        # engineer's change is recoverable.
        assert "et7/7" in robotron.confmon.backup.latest("pop01.c01.pr1")

        robotron.confmon.restore_golden("pop01.c01.pr1")
        assert device.running_config == robotron.generator.golden[
            "pop01.c01.pr1"
        ].text


class TestCrashRecovery:
    def test_device_crash_and_reboot_reconverges(self, pop_network):
        robotron = pop_network
        device = robotron.fleet.get("pop01.c01.psw1")
        device.crash()
        assert not robotron.fleet.all_bgp_established()
        robotron.run_minutes(5)
        device.boot()
        # Configs persist across reboot; sessions re-establish.
        assert robotron.fleet.all_bgp_established()

    def test_monitoring_survives_crashed_device(self, pop_network):
        robotron = pop_network
        robotron.fleet.get("pop01.c01.psw1").crash()
        robotron.run_minutes(10)  # jobs keep polling the rest
        assert robotron.jobs.engines["snmp"].events > 0
        assert any(
            device == "pop01.c01.psw1"
            for _job, device, _err in robotron.jobs.failures
        )


class TestDatabaseFailover:
    def test_design_work_continues_after_promotion(self):
        """FBNet keeps serving design reads/writes through a master loss."""
        from repro.fbnet.replication import ReplicatedFBNet
        from repro.simulation.clock import EventScheduler

        scheduler = EventScheduler()
        cluster = ReplicatedFBNet(
            ["na-east", "na-west", "eu-central"], "na-east", scheduler
        )
        client = cluster.client("eu-central")
        client.create_objects([("Region", {"name": "r1"})])
        scheduler.run_for(1.0)
        cluster.fail_master()
        cluster.promote_nearest()
        client.create_objects([("Region", {"name": "r2"})])
        scheduler.run_for(1.0)
        assert client.count("Region") == 2
        # Reads never stopped being served locally.
        assert client.count("Region", consistency="read-after-write") == 2
