"""Unit tests for the deployment guard: LKG, gates, rollback, records."""

import pytest

from repro import obs
from repro.common.errors import DeploymentError
from repro.deploy.deployer import Deployer
from repro.deploy.guard import DeploymentGuard, HealthGate, intent_hash
from repro.deploy.phases import PhaseSpec
from repro.devices.fleet import DeviceFleet
from repro.fbnet.models import DeploymentOutcome, DeploymentRecord
from repro.fbnet.store import ObjectStore
from repro.simulation.clock import EventScheduler

pytestmark = pytest.mark.guard


def config(name, mtu=9192):
    return f"hostname {name}\ninterface ae0\n mtu {mtu}\n no shutdown\n!\n"


@pytest.fixture
def rig():
    sched = EventScheduler()
    fleet = DeviceFleet(sched)
    for index in range(4):
        fleet.add_device(f"pop01.d{index}", "vendor1", role="psw")
    store = ObjectStore()
    notifications = []
    deployer = Deployer(fleet, notifier=notifications.append)
    guard = DeploymentGuard(
        deployer, fleet, store=store, notifier=notifications.append
    )
    # Every device needs a committed baseline: that is the first LKG.
    for name in fleet.devices:
        fleet.get(name).commit(config(name))
    return fleet, guard, store, notifications, sched


def new_configs(fleet, mtu=9000):
    return {name: config(name, mtu) for name in fleet.devices}


PHASES = [
    PhaseSpec(name="canary", percentage=25, bake_seconds=30.0),
    PhaseSpec(name="rest", percentage=100),
]


class TestIntentHash:
    def test_order_independent_and_text_sensitive(self):
        a = {"d1": "x", "d2": "y"}
        b = {"d2": "y", "d1": "x"}
        assert intent_hash(a) == intent_hash(b)
        assert intent_hash(a) != intent_hash({"d1": "x", "d2": "z"})

    def test_separator_prevents_name_text_ambiguity(self):
        assert intent_hash({"ab": "c"}) != intent_hash({"a": "bc"})


class TestLkgBookkeeping:
    def test_unprovisioned_device_rejected(self, rig):
        fleet, guard, _, _, _ = rig
        fleet.add_device("pop01.d9", "vendor1", role="psw")
        with pytest.raises(DeploymentError, match="no committed config"):
            guard.rollout(new_configs(fleet), PHASES)

    def test_clean_rollout_promotes_lkg(self, rig):
        fleet, guard, store, _, _ = rig
        before = fleet.config_versions()
        result = guard.rollout(new_configs(fleet), PHASES)
        assert result.ok
        assert result.outcome is DeploymentOutcome.SUCCEEDED
        assert sorted(result.report.succeeded) == sorted(fleet.devices)
        # The new versions are now the pinned last-known-good...
        for name, device in fleet.devices.items():
            assert guard.lkg[name] == device.config_version > before[name]
            assert device.version_entry(device.config_version).pinned
        # ...and the record says the fleet converged fully-new.
        [record] = store.all(DeploymentRecord)
        assert record.outcome is DeploymentOutcome.SUCCEEDED
        assert all(
            entry["state"] == "new"
            for entry in record.device_versions.values()
        )

    def test_rolled_back_rollouts_hold_one_pin_a_device(self, rig):
        """A rollback re-commits the LKG text as a new version; the pin must
        follow it, or every failed rollout leaks one unevictable entry."""
        fleet, guard, _, _, _ = rig
        for device in fleet.devices.values():
            device.max_config_history = 4
        for attempt in range(8):
            # The last device refuses its push, so d0..d2 are rolled back.
            fleet.get("pop01.d3").fail_next_commits = 1
            result = guard.rollout(
                new_configs(fleet, mtu=9000 + attempt),
                [PhaseSpec(name="all", percentage=100)],
            )
            assert result.outcome is DeploymentOutcome.ROLLED_BACK
        for name, device in fleet.devices.items():
            assert len(device.config_history) <= device.max_config_history
            pinned = [entry.version for entry in device.config_history if entry.pinned]
            assert pinned == [device.config_version] == [guard.lkg[name]]
        # The pin still moves forward when a rollout finally succeeds.
        assert guard.rollout(new_configs(fleet), PHASES).ok
        for device in fleet.devices.values():
            pinned = [entry.version for entry in device.config_history if entry.pinned]
            assert pinned == [device.config_version]

    def test_gates_pass_and_phases_logged(self, rig):
        fleet, guard, store, _, sched = rig
        guard.gate = HealthGate(fleet)
        start = sched.clock.now
        result = guard.rollout(new_configs(fleet), PHASES, bake_seconds=60.0)
        assert result.ok
        assert all(g.passed for g in result.gate_results.values())
        # canary baked its 30s override, rest the default 60s.
        assert sched.clock.now == start + 90.0
        [record] = store.all(DeploymentRecord)
        assert [p["phase"] for p in record.phases] == ["canary", "rest"]
        assert all(p["gate"] == "passed" for p in record.phases)


class TestRollback:
    def test_push_failure_rolls_back_touched_devices(self, rig):
        fleet, guard, store, notifications, _ = rig
        old_texts = {n: d.running_config for n, d in fleet.devices.items()}
        # Canary (25% of 4) is d0 alone; d1 then fails in the rest phase.
        fleet.get("pop01.d1").fail_next_commits = 1
        result = guard.rollout(new_configs(fleet), PHASES)
        assert result.outcome is DeploymentOutcome.ROLLED_BACK
        assert "push failed in rest" in result.rollback_reason
        assert result.restored == ["pop01.d0"]
        # Every device is back on (or never left) its last-known-good text.
        for name, device in fleet.devices.items():
            assert device.running_config == old_texts[name]
        assert obs.counter("deploy.rollback", op="guarded_rollout").value == 1
        assert obs.counter("deploy.lkg_restore", device="pop01.d0").value == 1
        [record] = store.all(DeploymentRecord)
        assert record.outcome is DeploymentOutcome.ROLLED_BACK
        assert record.devices_rolled_back == 1
        assert {e["state"] for e in record.device_versions.values()} == {"lkg"}
        assert any("rolling back" in note for note in notifications)

    def test_circuit_breaker_open_rolls_back(self, rig):
        fleet, guard, _, _, _ = rig
        for name in ("pop01.d1", "pop01.d2"):
            fleet.get(name).fail_next_commits = 1
        result = guard.rollout(
            new_configs(fleet),
            [PhaseSpec(name="all", percentage=100)],
            max_failure_ratio=0.25,
        )
        assert result.outcome is DeploymentOutcome.ROLLED_BACK
        assert "circuit breaker opened in all" in result.rollback_reason
        assert obs.counter("deploy.circuit_open", phase="all").value == 1
        # d0 was pushed and restored; d3 was never attempted.
        assert result.restored == ["pop01.d0"]
        assert "pop01.d3" in result.report.skipped or not result.report.succeeded

    def test_probe_failure_fails_gate_and_rolls_back(self, rig):
        fleet, guard, store, _, _ = rig
        guard.gate = HealthGate(fleet, probe=lambda batch: False)
        result = guard.rollout(new_configs(fleet), PHASES)
        assert result.outcome is DeploymentOutcome.ROLLED_BACK
        assert "health gate failed after canary" in result.rollback_reason
        assert "probe" in result.rollback_reason
        assert obs.counter("deploy.gate_fail", phase="canary").value == 1
        [record] = store.all(DeploymentRecord)
        assert {e["state"] for e in record.device_versions.values()} == {"lkg"}

    def test_crashing_probe_fails_gate(self, rig):
        fleet, guard, _, _, _ = rig

        def probe(batch):
            raise RuntimeError("probe tooling broke")

        guard.gate = HealthGate(fleet, probe=probe)
        result = guard.rollout(new_configs(fleet), PHASES)
        assert result.outcome is DeploymentOutcome.ROLLED_BACK
        assert "probe raised" in result.rollback_reason

    def test_crash_during_bake_fails_reachability_gate(self, rig):
        fleet, guard, store, notifications, sched = rig
        guard.gate = HealthGate(fleet)
        # The canary batch is pop01.d0; it dies 10s into the 30s bake.
        sched.call_after(sched.clock.now + 10, fleet.get("pop01.d0").crash)
        result = guard.rollout(new_configs(fleet), PHASES)
        assert result.outcome is DeploymentOutcome.ROLLBACK_FAILED
        assert "reachability" in result.rollback_reason
        # The dead device cannot be restored: paged, recorded as stuck.
        assert any("LKG rollback FAILED on pop01.d0" in n for n in notifications)
        [record] = store.all(DeploymentRecord)
        assert record.outcome is DeploymentOutcome.ROLLBACK_FAILED
        # It kept the new config — an allowed (non-mixed) state.
        assert record.device_versions["pop01.d0"]["state"] == "new"


class TestMonitoredGate:
    def test_confmon_catches_non_golden_push(self, pop_network):
        """A rollout of hand-mutated (non-golden) configs trips ConfMon."""
        robotron = pop_network
        # Hand-edit: an MTU tweak the generator never produced.
        configs = {
            name: robotron.generator.golden[name].text.replace("9192", "9100")
            for name in robotron.generator.golden
        }
        result = robotron.guarded_deploy(
            configs,
            [PhaseSpec(name="canary", percentage=25),
             PhaseSpec(name="rest", percentage=100)],
            bake_seconds=30.0,
        )
        assert result.outcome is DeploymentOutcome.ROLLED_BACK
        assert "confmon" in result.rollback_reason
        # Everything was restored to golden (the LKG *is* golden here).
        for name, cfg in robotron.generator.golden.items():
            assert robotron.fleet.get(name).running_config == cfg.text
