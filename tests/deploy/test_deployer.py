"""Tests for the deployment engine: provisioning and the four safety modes."""

import pytest

from repro import obs
from repro.common.errors import DeploymentError
from repro.deploy.deployer import Deployer
from repro.deploy.phases import PhaseSpec
from repro.devices.fleet import DeviceFleet
from repro.simulation.clock import EventScheduler


def v1_config(name, mtu=9192):
    return f"hostname {name}\ninterface ae0\n mtu {mtu}\n no shutdown\n!\n"


@pytest.fixture
def rig():
    scheduler = EventScheduler()
    fleet = DeviceFleet(scheduler)
    for index in range(4):
        fleet.add_device(f"pop01.d{index}", "vendor1", role="psw")
    fleet.add_device("bbs01.bb1", "vendor2", role="bb")
    notifications = []
    deployer = Deployer(fleet, notifier=notifications.append)
    return fleet, deployer, notifications, scheduler


def all_v1_configs(fleet, mtu=9192):
    return {
        name: v1_config(name, mtu)
        for name, device in fleet.devices.items()
        if device.vendor == "vendor1"
    }


class TestInitialProvisioning:
    def test_erase_copy_validate(self, rig):
        fleet, deployer, _, _ = rig
        report = deployer.initial_provision(all_v1_configs(fleet))
        assert report.ok
        assert len(report.succeeded) == 4
        assert fleet.get("pop01.d0").parsed.hostname == "pop01.d0"

    def test_replaces_existing_config(self, rig):
        fleet, deployer, _, _ = rig
        fleet.get("pop01.d0").commit(v1_config("pop01.d0", mtu=1500))
        deployer.initial_provision({"pop01.d0": v1_config("pop01.d0")})
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192

    def test_hostname_mismatch_fails_validation(self, rig):
        fleet, deployer, _, _ = rig
        report = deployer.initial_provision({"pop01.d0": v1_config("wrong-name")})
        assert "pop01.d0" in report.failed

    def test_drain_check_against_fbnet(self, rig, store, env):
        from repro.fbnet.models import DrainState, NetworkSwitch

        fleet, deployer, _, _ = rig
        store.create(
            NetworkSwitch, name="pop01.d0",
            hardware_profile=env.profiles["Switch_Vendor1"],
            drain_state=DrainState.UNDRAINED,
        )
        with pytest.raises(DeploymentError, match="not drained"):
            deployer.initial_provision(
                {"pop01.d0": v1_config("pop01.d0")}, store=store
            )

    def test_counts_provisioned_lines(self, rig):
        fleet, deployer, _, _ = rig
        report = deployer.initial_provision({"pop01.d0": v1_config("pop01.d0")})
        assert report.changed_lines["pop01.d0"] == 5


class TestDryrun:
    def test_native_and_computed_diffs(self, rig):
        fleet, deployer, _, _ = rig
        fleet.get("pop01.d0").commit(v1_config("pop01.d0"))
        fleet.get("bbs01.bb1").commit("system {\n    host-name bbs01.bb1;\n}\n")
        report = deployer.dryrun(
            {
                "pop01.d0": v1_config("pop01.d0", mtu=9000),  # computed diff
                "bbs01.bb1": (
                    "system {\n    host-name bbs01.bb1;\n"
                    "    domain-name x.net;\n}\n"
                ),  # native dryrun
            }
        )
        assert report.ok
        assert "-" in report.diffs["pop01.d0"]
        assert "+    domain-name x.net;" in report.diffs["bbs01.bb1"]
        # Nothing was applied either way.
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192

    def test_native_dryrun_catches_bad_config(self, rig):
        fleet, deployer, _, _ = rig
        report = deployer.dryrun({"bbs01.bb1": "complete garbage\n"})
        assert "bbs01.bb1" in report.failed

    def test_changed_line_counts(self, rig):
        fleet, deployer, _, _ = rig
        fleet.get("pop01.d0").commit(v1_config("pop01.d0"))
        report = deployer.dryrun({"pop01.d0": v1_config("pop01.d0", mtu=9000)})
        assert report.changed_lines["pop01.d0"] == 1


class TestAtomicMode:
    def test_all_devices_updated(self, rig):
        fleet, deployer, _, _ = rig
        report = deployer.atomic_deploy(all_v1_configs(fleet, mtu=9000))
        assert report.ok
        for name in report.succeeded:
            assert fleet.get(name).parsed.interfaces["ae0"].mtu == 9000

    def test_failure_rolls_back_everything(self, rig):
        fleet, deployer, notifications, _ = rig
        deployer.deploy(all_v1_configs(fleet, mtu=9192))
        fleet.get("pop01.d2").fail_next_commits = 1
        report = deployer.atomic_deploy(all_v1_configs(fleet, mtu=9000))
        assert not report.ok
        assert "pop01.d2" in report.failed
        # Devices committed before the failure were restored.
        for name in ("pop01.d0", "pop01.d1"):
            assert fleet.get(name).parsed.interfaces["ae0"].mtu == 9192
        assert set(report.rolled_back) == {"pop01.d0", "pop01.d1"}
        assert notifications  # engineers were told

    def test_crashed_device_keys_the_failure_by_its_name(self, rig):
        # DeviceDownError's message has no "<name>:" prefix to parse.
        fleet, deployer, _, _ = rig
        deployer.deploy(all_v1_configs(fleet, mtu=9192))
        fleet.get("pop01.d2").crash()
        report = deployer.atomic_deploy(all_v1_configs(fleet, mtu=9000))
        assert set(report.failed) == {"pop01.d2"}
        assert "unreachable" in report.failed["pop01.d2"]
        assert set(report.rolled_back) == {"pop01.d0", "pop01.d1"}
        for name in ("pop01.d0", "pop01.d1", "pop01.d3"):
            assert fleet.get(name).parsed.interfaces["ae0"].mtu == 9192

    def test_failed_rollback_is_reported_not_just_paged(self, rig):
        fleet, deployer, notifications, _ = rig
        deployer.deploy(all_v1_configs(fleet, mtu=9192))
        fleet.get("pop01.d2").fail_next_commits = 1
        # d0 takes the new config, then refuses the commit that restores it.
        fleet.get("pop01.d0").on_config_change(
            lambda device: setattr(device, "fail_next_commits", 1)
        )
        report = deployer.atomic_deploy(all_v1_configs(fleet, mtu=9000))
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9000
        assert set(report.failed) == {"pop01.d0", "pop01.d2"}
        assert report.rolled_back == ["pop01.d1"]
        assert any("atomic rollback FAILED on pop01.d0" in n for n in notifications)

    def test_time_window_enforced(self, rig):
        fleet, deployer, _, _ = rig
        deployer.deploy(all_v1_configs(fleet))
        fleet.get("pop01.d1").commit_delay = 120.0
        report = deployer.atomic_deploy(
            all_v1_configs(fleet, mtu=9000), time_window=60.0
        )
        assert not report.ok
        assert "exceeding" in str(report.failed.get("pop01.d1", ""))
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192


class TestPhasedMode:
    def test_percentage_phases(self, rig):
        fleet, deployer, _, _ = rig
        calls = []

        def health(batch):
            calls.append(list(batch))
            return True

        report = deployer.phased_deploy(
            all_v1_configs(fleet),
            [PhaseSpec(name="canary", percentage=25),
             PhaseSpec(name="rest", percentage=100)],
            health_check=health,
        )
        assert report.ok
        assert len(calls[0]) == 1  # 25% of 4
        assert len(calls[1]) == 3

    def test_health_failure_halts_and_notifies(self, rig):
        fleet, deployer, notifications, _ = rig

        report = deployer.phased_deploy(
            all_v1_configs(fleet, mtu=9000),
            [PhaseSpec(name="canary", percentage=25),
             PhaseSpec(name="rest", percentage=100)],
            health_check=lambda batch: False,
        )
        assert len(report.succeeded) == 1
        assert len(report.skipped) == 3
        assert any("health check failed" in n for n in notifications)
        # Undeployed devices untouched.
        assert fleet.get(report.skipped[0]).running_config == ""

    def test_role_and_region_selectors(self, rig):
        fleet, deployer, _, _ = rig
        configs = all_v1_configs(fleet)
        report = deployer.phased_deploy(
            configs,
            [PhaseSpec(name="psws", role="psw"), PhaseSpec(name="all", percentage=100)],
        )
        assert report.ok

    def test_commit_failure_mid_phase(self, rig):
        fleet, deployer, notifications, _ = rig
        fleet.get("pop01.d0").fail_next_commits = 1
        report = deployer.phased_deploy(
            all_v1_configs(fleet), [PhaseSpec(name="all", percentage=100)]
        )
        assert "pop01.d0" in report.failed
        assert notifications

    def test_phase_spec_validation(self):
        with pytest.raises(DeploymentError):
            PhaseSpec(name="bad")  # no selector
        with pytest.raises(DeploymentError):
            PhaseSpec(name="bad", percentage=25, role="psw")  # two selectors
        with pytest.raises(DeploymentError):
            PhaseSpec(name="bad", percentage=0)


class TestHumanConfirmation:
    def test_verified_deploy_confirms(self, rig):
        fleet, deployer, _, scheduler = rig
        deployer.deploy(all_v1_configs(fleet))
        report = deployer.deploy_with_confirmation(
            all_v1_configs(fleet, mtu=9000),
            grace_seconds=600,
            verify=lambda: True,
        )
        assert report.ok and report.succeeded
        scheduler.run_for(1200)
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9000

    def test_unverified_deploy_reverts_immediately(self, rig):
        fleet, deployer, notifications, scheduler = rig
        deployer.deploy(all_v1_configs(fleet))
        report = deployer.deploy_with_confirmation(
            all_v1_configs(fleet, mtu=9000),
            grace_seconds=600,
            verify=lambda: False,
        )
        assert report.rolled_back
        # Actively reverted right away — no waiting for grace timers.
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192
        assert obs.counter(
            "deploy.rollback", op="deploy_with_confirmation"
        ).value == len(report.rolled_back)
        # The cancelled timers must not fire a second rollback later.
        history_len = len(fleet.get("pop01.d0").config_history)
        scheduler.run_for(601)
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192
        assert len(fleet.get("pop01.d0").config_history) == history_len
        assert notifications

    def test_crashing_verifier_reverts_immediately(self, rig):
        fleet, deployer, _, scheduler = rig
        deployer.deploy(all_v1_configs(fleet))

        def verify():
            raise RuntimeError("verification tooling broke")

        report = deployer.deploy_with_confirmation(
            all_v1_configs(fleet, mtu=9000), grace_seconds=600, verify=verify
        )
        assert report.rolled_back
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192
        scheduler.run_for(601)
        assert fleet.get("pop01.d0").parsed.interfaces["ae0"].mtu == 9192
