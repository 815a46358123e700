"""Active monitoring backends: convert and store collected data (5.4.2).

The bottom tier of Figure 11.  Backends receive engine records and convert
them for their storage location:

* :class:`TimeSeriesBackend` — performance metrics (link/CPU/memory);
* :class:`DerivedModelBackend` — populates FBNet Derived models, e.g.
  creating a ``DerivedCircuit`` when LLDP data from two devices shows
  their interfaces are neighbors (section 4.1.2);
* :class:`ConfigBackupBackend` — a revision store of running configs,
  enabling rollback to any prior device config (section 5.4.3).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict, deque
from typing import Any

from repro.fbnet.models import (
    AdminStatus,
    DerivedBgpSession,
    DerivedCircuit,
    DerivedDevice,
    DerivedInterface,
    DerivedRunningConfig,
    OperStatus,
)
from repro.fbnet.query import And, Expr, Op
from repro.fbnet.store import ObjectStore
from repro.obs import flight
from repro.simulation.clock import Clock

__all__ = [
    "Backend",
    "ConfigBackupBackend",
    "DerivedModelBackend",
    "TimeSeriesBackend",
]


class Backend:
    """Base backend: receives one engine record."""

    name = "backend"

    def store(self, record: dict[str, Any], timestamp: float) -> None:
        raise NotImplementedError


class TimeSeriesBackend(Backend):
    """In-memory time-series store for performance metrics.

    Each series keeps at most ``max_points_per_series`` points; when a
    series is full the oldest point is evicted first, so long simulations
    hold a bounded window of recent samples instead of growing without
    limit.
    """

    name = "tsdb"

    def __init__(self, max_points_per_series: int = 4096) -> None:
        if max_points_per_series <= 0:
            raise ValueError("max_points_per_series must be positive")
        self.max_points_per_series = max_points_per_series
        # (device, metric) -> bounded [(timestamp, value)], oldest first
        self.series: dict[tuple[str, str], deque[tuple[float, float]]] = defaultdict(
            lambda: deque(maxlen=max_points_per_series)
        )

    def store(self, record: dict[str, Any], timestamp: float) -> None:
        device = record["device"]
        payload = record["payload"]
        if record["data_type"] == "system":
            for metric in ("cpu", "memory", "uptime"):
                self.series[(device, metric)].append((timestamp, payload[metric]))
        elif record["data_type"] == "interfaces":
            up = sum(1 for row in payload if row.get("oper_status") == "up")
            self.series[(device, "interfaces_up")].append((timestamp, float(up)))

    def latest(self, device: str, metric: str) -> float | None:
        points = self.series.get((device, metric))
        return points[-1][1] if points else None


class DerivedModelBackend(Backend):
    """Populates FBNet Derived models from collected state (section 4.1.2)."""

    name = "derived"

    def __init__(self, store: ObjectStore, clock: Clock):
        self._store = store
        self._clock = clock

    def store(self, record: dict[str, Any], timestamp: float) -> None:
        handler = getattr(self, f"_store_{record['data_type'].replace('-', '_')}", None)
        if handler is not None:
            # Derived rows describe what monitoring *observed*, not what
            # the ambient change intended — a rollout baking while a
            # collection job fires must not claim these writes, so the
            # change context is masked for the duration.  One payload is
            # one observation: its rows commit together or not at all.
            with flight.suppressed(), self._store.transaction():
                handler(record["device"], record["payload"], timestamp)

    def _upsert(self, model: type, rows: list, timestamp: float, found: dict | None = None) -> None:
        """Create or update, in order, the row each ``(key, values)`` of ``rows``
        names.  ``key``, the row's ``unique_together`` values, is the lookup
        *and* is written, so the two cannot drift apart.  ``found`` holds the
        rows one read found by key (:meth:`_found`); a row made here joins it."""
        names = model._meta.unique_together[0]
        if found is None:
            found = self._found(model, [key for key, _ in rows])
        for key, values in rows:
            values = {**dict(zip(names, key)), **values, "collected_at": timestamp}
            if key in found:
                self._store.update(found[key], **values)
            else:
                found[key] = self._store.create(model, **values)

    def _found(self, model: type, keys: list[tuple]) -> dict[tuple, Any]:
        """The ``model`` rows holding these keys, by key: one read, served by
        the ``unique_together`` index (each combination of values is probed)."""
        if not keys:
            return {}
        names = model._meta.unique_together[0]
        query = And(*(Expr(n, Op.EQUAL, list(dict.fromkeys(c))) for n, c in zip(names, zip(*keys))))
        rows = self._store.filter(model, query)
        return {tuple(getattr(row, name) for name in names): row for row in rows}

    # -- per-data-type converters ---------------------------------------------

    def _store_system(self, device: str, payload: dict, timestamp: float) -> None:
        self._upsert(DerivedDevice, [((device,), {
            "uptime_seconds": payload["uptime"],
            "cpu_utilization": payload["cpu"],
            "memory_utilization": payload["memory"],
        })], timestamp)

    def _store_interfaces(self, device: str, payload: list, timestamp: float) -> None:
        self._upsert(DerivedInterface, [((device, row["name"]), {
            "oper_status": OperStatus(row["oper_status"]),
            "admin_status": AdminStatus(row.get("admin_status", "enabled")),
        }) for row in payload], timestamp)

    def _store_lldp(self, device: str, payload: list, timestamp: float) -> None:
        """Create DerivedCircuits when both ends report each other.

        "A circuit object is created if the LLDP data from two devices
        shows that the physical interfaces connected to both ends are
        neighbors to each other" — we record each side's view and promote
        to a circuit when the reverse view exists.  One read finds every
        side's own row and its mirror.
        """
        links = [((device, row["local_interface"]), (row["neighbor_device"],
                  row["neighbor_interface"])) for row in payload]
        found = self._found(DerivedCircuit, [end for link in links for end in link])
        for a_end, (z_dev, z_if) in links:
            mirror = found.get((z_dev, z_if))
            if mirror and (mirror.z_device_name, mirror.z_interface_name) == a_end:
                self._store.update(mirror, collected_at=timestamp)
                continue
            rows = [(a_end, {"z_device_name": z_dev, "z_interface_name": z_if})]
            self._upsert(DerivedCircuit, rows, timestamp, found)

    def _store_bgp(self, device: str, payload: list, timestamp: float) -> None:
        self._upsert(DerivedBgpSession, [
            ((device, row["peer_ip"]), {"state": row["state"]}) for row in payload
        ], timestamp)

    def _store_running_config(self, device: str, payload: str, timestamp: float) -> None:
        self._upsert(DerivedRunningConfig, [((device,), {
            "config_hash": hashlib.sha256(payload.encode()).hexdigest(),
            "config_text": payload,
        })], timestamp)


class ConfigBackupBackend(Backend):
    """Revision-controlled backups of running configs (section 5.4.3)."""

    name = "config-backup"

    def __init__(self) -> None:
        # device -> [(timestamp, config text)]
        self.revisions: dict[str, list[tuple[float, str]]] = defaultdict(list)

    def store(self, record: dict[str, Any], timestamp: float) -> None:
        if record["data_type"] != "running-config":
            return
        device = record["device"]
        text = record["payload"]
        history = self.revisions[device]
        if history and history[-1][1] == text:
            return  # unchanged; keep the revision history meaningful
        history.append((timestamp, text))

    def latest(self, device: str) -> str | None:
        history = self.revisions.get(device)
        return history[-1][1] if history else None

    def revision(self, device: str, index: int) -> str:
        return self.revisions[device][index][1]

    def revision_count(self, device: str) -> int:
        return len(self.revisions.get(device, []))
