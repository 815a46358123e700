"""The device fleet: wiring, anycast syslog, and cross-device protocol state.

A :class:`DeviceFleet` holds every emulated device, the physical circuit
wiring between their ports, and the shared syslog "anycast" bus that the
passive-monitoring collectors subscribe to (paper section 5.4.1).  It can
bootstrap itself from FBNet Desired state — devices from the device
objects (vendor via hardware profile), wiring from the circuit objects —
which is exactly the relationship between the model and the physical
network the paper describes.
"""

from __future__ import annotations

import ipaddress
from collections.abc import Callable
from typing import Any

from repro.common.errors import DeploymentError
from repro.devices.emulator import EmulatedDevice
from repro.simulation.clock import EventScheduler

__all__ = ["DeviceFleet"]


class DeviceFleet:
    """All emulated devices plus the physical and logical glue."""

    def __init__(self, scheduler: EventScheduler | None = None):
        self.scheduler = scheduler or EventScheduler()
        self.devices: dict[str, EmulatedDevice] = {}
        # (device name, interface) -> (device name, interface)
        self._wiring: dict[tuple[str, str], tuple[str, str]] = {}
        # Collectors subscribed to the syslog anycast address.
        self._syslog_collectors: list[Callable[[dict[str, Any]], None]] = []
        # ip -> (device name, interface); rebuilt when any config changes.
        self._ip_index: dict[str, tuple[str, str]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_device(
        self,
        name: str,
        vendor: str,
        role: str = "",
        *,
        max_config_history: int | None = None,
    ) -> EmulatedDevice:
        if name in self.devices:
            raise DeploymentError(f"device {name} already exists in the fleet")
        kwargs: dict[str, Any] = {"role": role}
        if max_config_history is not None:
            kwargs["max_config_history"] = max_config_history
        device = EmulatedDevice(name, vendor, self.scheduler, **kwargs)
        device.fleet = self
        device.on_syslog(self._route_syslog)
        device.on_config_change(lambda _dev: self._invalidate_ip_index())
        self.devices[name] = device
        return device

    def get(self, name: str) -> EmulatedDevice:
        try:
            return self.devices[name]
        except KeyError:
            raise DeploymentError(f"no device named {name!r} in the fleet") from None

    def wire(self, a_name: str, a_interface: str, z_name: str, z_interface: str) -> None:
        """Connect two ports with a (virtual) circuit."""
        a_key, z_key = (a_name, a_interface), (z_name, z_interface)
        for key in (a_key, z_key):
            if key in self._wiring:
                raise DeploymentError(f"port {key} is already wired")
        self._wiring[a_key] = z_key
        self._wiring[z_key] = a_key

    def unwire(self, a_name: str, a_interface: str) -> None:
        a_key = (a_name, a_interface)
        z_key = self._wiring.pop(a_key, None)
        if z_key is not None:
            self._wiring.pop(z_key, None)

    def peer_of(
        self, device_name: str, interface: str
    ) -> tuple[EmulatedDevice, str] | None:
        """The device+interface at the far end of a wired port."""
        entry = self._wiring.get((device_name, interface))
        if entry is None:
            return None
        peer_name, peer_interface = entry
        peer = self.devices.get(peer_name)
        if peer is None:
            return None
        return peer, peer_interface

    @classmethod
    def from_fbnet(cls, store, scheduler: EventScheduler | None = None) -> DeviceFleet:
        """Boot a fleet matching FBNet Desired state.

        Devices come from the device objects (vendor via the hardware
        profile); circuit wiring comes from the circuit objects' endpoint
        interfaces.
        """
        from repro.fbnet.models import Circuit, Device

        fleet = cls(scheduler)
        for device in store.all(Device):
            fleet.add_device(device.name, device.vendor().value, role=device.role.value)
        for circuit in store.all(Circuit):
            ends = circuit.endpoints()
            if ends is not None:
                (a_dev, a_pif), (z_dev, z_pif) = ends
                fleet.wire(a_dev.name, a_pif.name, z_dev.name, z_pif.name)
        return fleet

    def sync_wiring(self, store) -> None:
        """Re-derive the wiring from FBNet circuits (after design changes)."""
        from repro.fbnet.models import Circuit

        self._wiring.clear()
        for circuit in store.all(Circuit):
            ends = circuit.endpoints()
            if ends is None:
                continue
            (a_dev, a_pif), (z_dev, z_pif) = ends
            if a_dev.name in self.devices and z_dev.name in self.devices:
                self.wire(a_dev.name, a_pif.name, z_dev.name, z_pif.name)

    # ------------------------------------------------------------------
    # Syslog anycast bus
    # ------------------------------------------------------------------

    def subscribe_syslog(self, collector: Callable[[dict[str, Any]], None]) -> None:
        """Register a collector on the syslog anycast address."""
        self._syslog_collectors.append(collector)

    def _route_syslog(self, event: dict[str, Any]) -> None:
        for collector in self._syslog_collectors:
            collector(event)

    # ------------------------------------------------------------------
    # Cross-device protocol state
    # ------------------------------------------------------------------

    def _invalidate_ip_index(self) -> None:
        self._ip_index = None

    def _build_ip_index(self) -> dict[str, tuple[str, str]]:
        index: dict[str, tuple[str, str]] = {}
        for device in self.devices.values():
            for if_name, stanza in device.parsed.interfaces.items():
                for prefix in (stanza.v4_prefix, stanza.v6_prefix):
                    if prefix is not None:
                        index[prefix.split("/")[0]] = (device.name, if_name)
        return index

    def device_with_ip(self, ip: str) -> tuple[EmulatedDevice, str] | None:
        """Which device/interface carries ``ip`` in its running config."""
        if self._ip_index is None:
            self._ip_index = self._build_ip_index()
        entry = self._ip_index.get(ip)
        if entry is None:
            return None
        return self.devices[entry[0]], entry[1]

    def bgp_session_state(self, device: EmulatedDevice, peer_ip: str) -> str:
        """State of one configured BGP neighbor, from both ends' configs.

        * ``idle`` — the peer ip is configured nowhere, or the peer is down;
        * ``active`` — the peer exists but hasn't configured us back (the
          cross-device dependency of paper section 1), or the underlying
          link is down;
        * ``established`` — both ends configured, transport up.
        """
        if not device.alive:
            return "idle"
        neighbor = device.parsed.bgp_neighbors.get(peer_ip)
        if neighbor is not None and neighbor.shutdown:
            return "idle"  # administratively shut (drained device)
        entry = self.device_with_ip(peer_ip)
        if entry is None:
            return "idle"
        peer_device, peer_interface = entry
        if not peer_device.alive:
            return "idle"
        # Does the peer have a reciprocal neighbor statement toward us?
        local_ip = neighbor.local_ip if neighbor else None
        if local_ip is None:
            local_ip = self._infer_local_ip(device, peer_ip)
        if local_ip is None or local_ip not in peer_device.parsed.bgp_neighbors:
            return "active"
        if peer_device.parsed.bgp_neighbors[local_ip].shutdown:
            return "active"  # the far end shut the session (drained peer)
        # Transport check: direct sessions need the connected interfaces
        # up; loopback (multihop iBGP) sessions just need both ends alive.
        local_interface = device.interface_with_ip(local_ip)
        if local_interface is None:
            return "active"
        if local_interface.startswith("lo") or peer_interface.startswith("lo"):
            return "established"
        if (
            device.interface_oper_status(local_interface) == "up"
            and peer_device.interface_oper_status(peer_interface) == "up"
        ):
            return "established"
        return "active"

    def _infer_local_ip(self, device: EmulatedDevice, peer_ip: str) -> str | None:
        """Find our address in the same subnet as ``peer_ip``."""
        try:
            peer_address = ipaddress.ip_address(peer_ip)
        except ValueError:
            return None
        for stanza in device.parsed.interfaces.values():
            for prefix in (stanza.v4_prefix, stanza.v6_prefix):
                if prefix is None:
                    continue
                interface = ipaddress.ip_interface(prefix)
                if peer_address in interface.network:
                    return str(interface.ip)
        return None

    # ------------------------------------------------------------------
    # Fleet-wide views
    # ------------------------------------------------------------------

    def config_versions(self, names: list[str] | None = None) -> dict[str, int]:
        """The running-config version of every (or the named) device(s)."""
        if names is None:
            names = sorted(self.devices)
        return {name: self.get(name).config_version for name in names}

    def all_bgp_established(self) -> bool:
        """Whether every configured BGP session in the fleet is established."""
        for device in self.devices.values():
            if not device.alive:
                continue
            for entry in device.bgp_summary():
                if entry["state"] != "established":
                    return False
        return True

    def __len__(self) -> int:
        return len(self.devices)
