"""The emulated network device.

Each :class:`EmulatedDevice` models the management-plane surface Robotron
touches (paper sections 5.3-5.4): config push with per-vendor syntax
checking, native dryrun on vendor2 only (vendor1 diffs are computed by the
deployer from before/after snapshots — both cases from section 5.3.2),
commit-confirmed with an automatic rollback timer, erase/copy initial
provisioning, SNMP/CLI/XML-RPC/Thrift monitoring endpoints with per-vendor
capability gaps (e.g. LACP member status is CLI-only on vendor1, matching
section 6.4), LLDP neighborship, BGP session state, syslog emission, and
fault injection.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.errors import DeploymentError, MonitoringError
from repro.devices.parsers import ConfigSyntaxError, ParsedConfig, parse_config
from repro.simulation.clock import EventScheduler, ScheduledEvent

if TYPE_CHECKING:
    from repro.devices.fleet import DeviceFleet

__all__ = [
    "CommitError",
    "ConfigVersion",
    "DEFAULT_MAX_CONFIG_HISTORY",
    "DeviceDownError",
    "EmulatedDevice",
    "UnsupportedOperation",
]


class DeviceDownError(DeploymentError):
    """The device is unreachable (crashed or rebooting)."""


class CommitError(DeploymentError):
    """The device refused or failed to commit a configuration."""


class UnsupportedOperation(DeploymentError):
    """The device/vendor does not support the requested operation."""


#: Which monitoring engines each vendor dialect supports (section 6.4:
#: capabilities vary across vendor platforms; some data is CLI-only).
VENDOR_CAPABILITIES = {
    "vendor1": {"snmp", "cli", "xmlrpc"},
    "vendor2": {"snmp", "cli", "thrift"},
}

#: Vendors with a native dryrun ("commit check") facility (section 5.3.2).
NATIVE_DRYRUN_VENDORS = {"vendor2"}

#: Default retention limit for the on-box config history (mirrors the
#: monitoring backends' ``max_points_per_series`` bound): long simulations
#: must not grow device state without bound.
DEFAULT_MAX_CONFIG_HISTORY = 64


@dataclass
class ConfigVersion:
    """One committed configuration revision on a device.

    ``pinned`` marks a revision as referenced from outside the device (the
    deployment guard pins last-known-good versions); pinned revisions are
    exempt from retention eviction.
    """

    version: int
    text: str
    committed_at: float
    reason: str
    pinned: bool = False


class EmulatedDevice:
    """One emulated router or switch."""

    def __init__(
        self,
        name: str,
        vendor: str,
        scheduler: EventScheduler,
        *,
        role: str = "",
        max_config_history: int = DEFAULT_MAX_CONFIG_HISTORY,
    ):
        if vendor not in VENDOR_CAPABILITIES:
            raise ValueError(f"unknown vendor {vendor!r}")
        if max_config_history < 1:
            raise ValueError("max_config_history must be >= 1")
        self.name = name
        self.vendor = vendor
        self.role = role
        self.scheduler = scheduler
        self.fleet: DeviceFleet | None = None

        # Config state.
        self.running_config = ""
        self._running_sha: str | None = None
        self.parsed = ParsedConfig()
        self.config_history: list[ConfigVersion] = []
        self.max_config_history = max_config_history
        self._commit_seq = itertools.count(1)
        self._version_seq = itertools.count(1)

        # Liveness.
        self.alive = True
        self.booted_at = scheduler.clock.now

        # Commit-confirmed state.
        self._confirm_event: ScheduledEvent | None = None
        self._confirm_previous: str | None = None

        # Fault injection.
        self.fail_next_commits = 0
        self.commit_delay = 0.0
        self.drop_syslog = False

        # Telemetry baselines (deterministic per device name).
        seed = sum(name.encode())
        self.cpu_base = 0.05 + (seed % 20) / 100.0
        self.mem_base = 0.30 + (seed % 30) / 100.0

        # Listeners.
        self._syslog_listeners: list[Callable[[dict[str, Any]], None]] = []
        self._config_listeners: list[Callable[[EmulatedDevice], None]] = []

        # Per-engine request counters (Table 2 accounting).
        self.requests_served: dict[str, int] = {
            "snmp": 0, "cli": 0, "xmlrpc": 0, "thrift": 0
        }

    # ------------------------------------------------------------------
    # Liveness / reachability
    # ------------------------------------------------------------------

    def _require_alive(self) -> None:
        if not self.alive:
            raise DeviceDownError(f"{self.name} is unreachable")

    def reachable(self) -> bool:
        return self.alive

    def crash(self) -> None:
        """The device dies: configs survive, sessions drop, mgmt unreachable."""
        self.alive = False

    def boot(self) -> None:
        self.alive = True
        self.booted_at = self.scheduler.clock.now
        self.emit_syslog("SYSTEM", f"System restarted: {self.name} booting")

    @property
    def uptime(self) -> float:
        return self.scheduler.clock.now - self.booted_at if self.alive else 0.0

    # ------------------------------------------------------------------
    # Config operations
    # ------------------------------------------------------------------

    @property
    def supports_native_dryrun(self) -> bool:
        return self.vendor in NATIVE_DRYRUN_VENDORS

    @property
    def running_sha(self) -> str:
        """SHA-256 of the running config, cached until the config changes.

        Deployment's content-hash skip compares this against the golden
        config's sha; every config mutation funnels through ``_apply`` or
        ``erase``, which invalidate the cache.
        """
        if self._running_sha is None:
            self._running_sha = hashlib.sha256(
                self.running_config.encode()
            ).hexdigest()
        return self._running_sha

    def erase(self) -> None:
        """Erase to factory state (initial provisioning, section 5.3.1)."""
        self._require_alive()
        self._cancel_confirm()
        self.running_config = ""
        self._running_sha = None
        self.parsed = ParsedConfig()
        self._notify_config_changed(log=False)

    def copy_config(self, text: str) -> None:
        """Copy a full config onto a clean device (section 5.3.1)."""
        self._require_alive()
        if self.running_config:
            raise CommitError(
                f"{self.name}: copy_config requires a clean (erased) device"
            )
        self._apply(text)

    def dryrun(self, text: str) -> str:
        """Native dryrun: validate and return a diff without applying.

        Only some vendors support this (section 5.3.2); for the rest the
        deployer compares running configs before and after.
        """
        self._require_alive()
        if not self.supports_native_dryrun:
            raise UnsupportedOperation(
                f"{self.name} ({self.vendor}) has no native dryrun support"
            )
        try:
            parse_config(self.vendor, text)  # on-box syntax check
        except ConfigSyntaxError as exc:
            raise CommitError(f"{self.name}: dryrun rejected config: {exc}") from None
        from repro.deploy.diff import unified_diff

        return unified_diff(self.running_config, text, self.name)

    def commit(self, text: str) -> float:
        """Commit a config; returns the (simulated) time the commit took."""
        self._require_alive()
        if self.fail_next_commits > 0:
            self.fail_next_commits -= 1
            raise CommitError(f"{self.name}: commit failed (device error)")
        self._cancel_confirm()
        self._apply(text)
        return self.commit_delay

    def commit_confirmed(self, text: str, grace_seconds: float) -> float:
        """Commit with an automatic-rollback timer (section 5.3.2).

        The new config is live immediately, but unless :meth:`confirm` is
        called within ``grace_seconds``, the device reverts on its own.
        """
        self._require_alive()
        if grace_seconds <= 0:
            raise CommitError("grace period must be positive")
        previous = self.running_config
        delay = self.commit(text)
        self._confirm_previous = previous
        self._confirm_event = self.scheduler.call_after(
            grace_seconds, self._auto_rollback, name=f"{self.name}-confirm-timer"
        )
        return delay

    def confirm(self) -> None:
        """Make a commit_confirmed change permanent."""
        self._require_alive()
        if self._confirm_event is None:
            raise CommitError(f"{self.name}: no commit awaiting confirmation")
        self._cancel_confirm()

    def _auto_rollback(self) -> None:
        if self._confirm_previous is None:
            return
        previous = self._confirm_previous
        self._confirm_event = None
        self._confirm_previous = None
        if not self.alive:
            return
        self._apply(previous, reason="confirm-timeout rollback")

    def _cancel_confirm(self) -> None:
        if self._confirm_event is not None:
            self._confirm_event.cancel()
        self._confirm_event = None
        self._confirm_previous = None

    def abort_confirm(self) -> None:
        """Actively revert a pending commit_confirmed change right now.

        The operator's counterpart to letting the grace timer fire: cancel
        the timer and restore the pre-commit config immediately.
        """
        self._require_alive()
        if self._confirm_event is None:
            raise CommitError(f"{self.name}: no commit awaiting confirmation")
        previous = self._confirm_previous
        self._cancel_confirm()
        if previous is not None and previous != self.running_config:
            self._apply(previous, reason="confirmation aborted")

    def rollback(self, steps: int = 1) -> None:
        """Revert to a previous committed config."""
        self._require_alive()
        if steps < 1 or steps >= len(self.config_history):
            available = max(len(self.config_history) - 1, 0)
            raise CommitError(
                f"{self.name}: cannot roll back {steps} step(s); "
                f"{available} available"
            )
        target = self.config_history[-(steps + 1)]
        self._apply(target.text, reason=f"rollback {steps}")

    # ------------------------------------------------------------------
    # Versioned config history (last-known-good support)
    # ------------------------------------------------------------------

    @property
    def config_version(self) -> int:
        """The version number of the running config (0 before any commit)."""
        return self.config_history[-1].version if self.config_history else 0

    def version_entry(self, version: int) -> ConfigVersion:
        """The history entry for ``version`` (raises if evicted/unknown)."""
        for entry in reversed(self.config_history):
            if entry.version == version:
                return entry
        raise CommitError(
            f"{self.name}: config version {version} is not in the on-box "
            f"history (never committed, or evicted by retention)"
        )

    def pin_version(self, version: int) -> None:
        """Exempt ``version`` from history eviction (e.g. a rollback target)."""
        self.version_entry(version).pinned = True

    def unpin_version(self, version: int) -> None:
        """Drop the eviction exemption; tolerates already-evicted versions."""
        for entry in reversed(self.config_history):
            if entry.version == version:
                entry.pinned = False
                return

    def revert_to(self, version: int) -> None:
        """Restore a specific committed config version."""
        self._require_alive()
        entry = self.version_entry(version)
        if entry.text == self.running_config:
            return
        self._cancel_confirm()
        self._apply(entry.text, reason=f"revert to v{version}")

    def _evict_history(self) -> None:
        while len(self.config_history) > self.max_config_history:
            for index, entry in enumerate(self.config_history[:-1]):
                if not entry.pinned:
                    del self.config_history[index]
                    break
            else:
                return  # everything old is pinned; over-retention is allowed

    def _apply(self, text: str, reason: str = "commit") -> None:
        try:
            parsed = parse_config(self.vendor, text)
        except ConfigSyntaxError as exc:
            raise CommitError(f"{self.name}: {exc}") from None
        old_config = self.running_config
        self.running_config = text
        self._running_sha = None
        self.parsed = parsed
        self.config_history.append(
            ConfigVersion(
                version=next(self._version_seq),
                text=text,
                committed_at=self.scheduler.clock.now,
                reason=reason,
            )
        )
        self._evict_history()
        if old_config != text:
            self.emit_syslog(
                "CONFIG",
                f"Configuration changed ({reason}, commit "
                f"{next(self._commit_seq)})",
            )
        self._notify_config_changed()

    def _notify_config_changed(self, log: bool = True) -> None:
        for listener in self._config_listeners:
            listener(self)

    def on_config_change(self, listener: Callable[[EmulatedDevice], None]) -> None:
        self._config_listeners.append(listener)

    # ------------------------------------------------------------------
    # Syslog (passive monitoring source, section 5.4.1)
    # ------------------------------------------------------------------

    def on_syslog(self, listener: Callable[[dict[str, Any]], None]) -> None:
        self._syslog_listeners.append(listener)

    def emit_syslog(self, tag: str, message: str) -> None:
        """Send a syslog message to the configured collector(s).

        A device only emits when its running config points logging at a
        collector — a freshly erased device is silent, exactly the gap
        config monitoring exists to close.
        """
        if self.drop_syslog:
            return
        if not self.parsed.syslog_hosts and tag != "SYSTEM":
            return
        event = {
            "device": self.name,
            "tag": tag,
            "message": message,
            "timestamp": self.scheduler.clock.now,
        }
        for listener in self._syslog_listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Interface / protocol state (what monitoring observes)
    # ------------------------------------------------------------------

    def interface_names(self) -> list[str]:
        return sorted(self.parsed.interfaces)

    def _wired_peer(self, interface: str):
        if self.fleet is None:
            return None
        return self.fleet.peer_of(self.name, interface)

    def interface_oper_status(self, name: str) -> str:
        """'up' / 'down' for one configured interface."""
        stanza = self.parsed.interfaces.get(name)
        if stanza is None:
            return "down"
        if not stanza.enabled or not self.alive:
            return "down"
        if name.startswith("lo"):
            return "up"
        if stanza.channel_group is not None or not self._is_aggregate(name):
            # A physical port: needs a live wire and a live remote end.
            peer = self._wired_peer(name)
            if peer is None:
                return "down"
            peer_device, peer_interface = peer
            if not peer_device.alive:
                return "down"
            peer_stanza = peer_device.parsed.interfaces.get(peer_interface)
            if peer_stanza is None or not peer_stanza.enabled:
                return "down"
            return "up"
        # An aggregate: up when at least one member is up.
        return "up" if any(
            self.interface_oper_status(member) == "up"
            for member in self.lacp_members(name)
        ) else "down"

    def _is_aggregate(self, name: str) -> bool:
        return any(
            stanza.channel_group == name for stanza in self.parsed.interfaces.values()
        )

    def lacp_members(self, aggregate: str) -> list[str]:
        return sorted(
            name
            for name, stanza in self.parsed.interfaces.items()
            if stanza.channel_group == aggregate
        )

    def lldp_neighbors(self) -> list[dict[str, str]]:
        """LLDP neighbor table: one entry per wired, up physical port."""
        neighbors = []
        for name, stanza in sorted(self.parsed.interfaces.items()):
            peer = self._wired_peer(name)
            if peer is None or not stanza.enabled:
                continue
            peer_device, peer_interface = peer
            if not peer_device.alive:
                continue
            neighbors.append(
                {
                    "local_interface": name,
                    "neighbor_device": peer_device.name,
                    "neighbor_interface": peer_interface,
                }
            )
        return neighbors

    def bgp_summary(self) -> list[dict[str, Any]]:
        """State of every configured BGP neighbor."""
        summary = []
        for peer_ip, neighbor in sorted(self.parsed.bgp_neighbors.items()):
            state = "idle"
            if self.fleet is not None:
                state = self.fleet.bgp_session_state(self, peer_ip)
            summary.append(
                {
                    "peer_ip": peer_ip,
                    "peer_asn": neighbor.peer_asn,
                    "state": state,
                }
            )
        return summary

    def interface_with_ip(self, ip: str) -> str | None:
        """The interface configured with ``ip`` (mask-stripped match)."""
        for name, stanza in self.parsed.interfaces.items():
            for prefix in (stanza.v4_prefix, stanza.v6_prefix):
                if prefix is not None and prefix.split("/")[0] == ip:
                    return name
        return None

    # ------------------------------------------------------------------
    # Monitoring endpoints (active monitoring engines, section 5.4.2)
    # ------------------------------------------------------------------

    def _engine_request(self, engine: str) -> None:
        self._require_alive()
        if engine not in VENDOR_CAPABILITIES[self.vendor]:
            raise MonitoringError(
                f"{self.name} ({self.vendor}) does not support {engine}"
            )
        self.requests_served[engine] += 1

    def snmp_get(self, table: str) -> Any:
        """SNMP polling: interface and system tables (cheap, no LACP detail)."""
        self._engine_request("snmp")
        if table == "interfaces":
            return [
                {
                    "name": name,
                    "oper_status": self.interface_oper_status(name),
                    "admin_status": "enabled"
                    if self.parsed.interfaces[name].enabled
                    else "disabled",
                    "mtu": self.parsed.interfaces[name].mtu,
                }
                for name in self.interface_names()
            ]
        if table == "system":
            load = 0.02 * len(self.parsed.interfaces)
            return {
                "uptime": self.uptime,
                "cpu": min(0.99, self.cpu_base + load),
                "memory": min(0.99, self.mem_base + load / 2),
            }
        raise MonitoringError(f"unknown SNMP table {table!r}")

    def cli_show(self, command: str) -> Any:
        """CLI scraping: the only way to get some data on some vendors."""
        self._engine_request("cli")
        if command == "show running-config":
            return self.running_config
        if command == "show lldp neighbors":
            return self.lldp_neighbors()
        if command == "show bgp summary":
            return self.bgp_summary()
        if command.startswith("show lacp members "):
            aggregate = command.rsplit(None, 1)[1]
            return [
                {"member": member, "oper_status": self.interface_oper_status(member)}
                for member in self.lacp_members(aggregate)
            ]
        raise MonitoringError(f"{self.name}: unknown CLI command {command!r}")

    def xmlrpc_get(self, what: str) -> Any:
        """XML/RPC management API (vendor1 only)."""
        self._engine_request("xmlrpc")
        return self._structured_get(what)

    def thrift_get(self, what: str) -> Any:
        """Thrift management API (vendor2 only)."""
        self._engine_request("thrift")
        return self._structured_get(what)

    def _structured_get(self, what: str) -> Any:
        if what == "interfaces":
            return [
                {"name": name, "oper_status": self.interface_oper_status(name)}
                for name in self.interface_names()
            ]
        if what == "bgp":
            return self.bgp_summary()
        if what == "config":
            return {"text": self.running_config, "hostname": self.parsed.hostname}
        raise MonitoringError(f"unknown structured query {what!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EmulatedDevice {self.name} ({self.vendor})>"
