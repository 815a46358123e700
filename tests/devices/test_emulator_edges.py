"""Edge-case tests for the device emulator's timers and failure modes."""

import pytest

from repro.devices.emulator import CommitError, EmulatedDevice
from repro.simulation.clock import EventScheduler

CONFIG_A = "hostname d1\ninterface ae0\n mtu 9192\n no shutdown\n!\n"
CONFIG_B = "hostname d1\ninterface ae0\n mtu 9000\n no shutdown\n!\n"


@pytest.fixture
def sched():
    return EventScheduler()


@pytest.fixture
def device(sched):
    return EmulatedDevice("d1", "vendor1", sched)


class TestConfirmTimerEdges:
    def test_crash_during_grace_skips_rollback(self, sched, device):
        """A device that dies mid-grace keeps whatever was running when it
        crashed; the timer must not 'reach into' a dead device."""
        device.commit(CONFIG_A)
        device.commit_confirmed(CONFIG_B, grace_seconds=600)
        device.crash()
        sched.run_for(700)
        device.boot()
        assert device.running_config == CONFIG_B

    def test_erase_cancels_pending_confirm(self, sched, device):
        device.commit(CONFIG_A)
        device.commit_confirmed(CONFIG_B, grace_seconds=600)
        device.erase()
        sched.run_for(700)  # the timer must not resurrect CONFIG_A
        assert device.running_config == ""

    def test_confirm_after_timer_fired_raises(self, sched, device):
        device.commit(CONFIG_A)
        device.commit_confirmed(CONFIG_B, grace_seconds=600)
        sched.run_for(700)
        with pytest.raises(CommitError, match="no commit awaiting"):
            device.confirm()

    def test_stacked_commit_confirmed_replaces_timer(self, sched, device):
        device.commit(CONFIG_A)
        device.commit_confirmed(CONFIG_B, grace_seconds=600)
        config_c = CONFIG_B.replace("9000", "8000")
        device.commit_confirmed(config_c, grace_seconds=600)
        sched.run_for(700)
        # The second grace window rolls back to B (the state before C),
        # not all the way to A.
        assert device.running_config == CONFIG_B


class TestRollbackBounds:
    def test_rollback_past_the_oldest_commit_is_a_commit_error(self, device):
        device.commit(CONFIG_A)
        device.commit(CONFIG_B)
        with pytest.raises(CommitError, match="1 available"):
            device.rollback(2)
        assert device.running_config == CONFIG_B
        device.rollback(1)
        assert device.running_config == CONFIG_A


class TestSyslogEdges:
    def test_identical_commit_emits_no_config_change(self, device):
        events = []
        device.on_syslog(events.append)
        logging_config = CONFIG_A + "logging host 2401:db00:ffff::514\n"
        device.commit(logging_config)
        events.clear()
        device.commit(logging_config)  # same text: no change, no syslog
        assert events == []

    def test_rollback_emits_config_change(self, device):
        events = []
        device.on_syslog(events.append)
        logging_config = CONFIG_A + "logging host 2401:db00:ffff::514\n"
        device.commit(logging_config)
        device.commit(logging_config.replace("9192", "9000"))
        events.clear()
        device.rollback(1)
        assert any(e["tag"] == "CONFIG" for e in events)


class TestTelemetryEdges:
    def test_cpu_grows_with_config_size(self, device):
        device.commit(CONFIG_A)
        small = device.snmp_get("system")["cpu"]
        many_interfaces = "hostname d1\n" + "".join(
            f"interface ae{i}\n no shutdown\n!\n" for i in range(20)
        )
        device.commit(many_interfaces)
        large = device.snmp_get("system")["cpu"]
        assert large > small

    def test_uptime_zero_while_down(self, sched, device):
        sched.clock.advance(500)
        assert device.uptime == 500
        device.crash()
        assert device.uptime == 0.0

    def test_distinct_devices_distinct_baselines(self, sched):
        a = EmulatedDevice("alpha", "vendor1", sched)
        b = EmulatedDevice("omega-long-name", "vendor1", sched)
        assert a.cpu_base != b.cpu_base
