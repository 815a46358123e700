"""Desired-vs-Derived anomaly detection (paper section 4.1.2).

"One obvious use case of having the Desired and Derived data is anomaly
detection.  Differences between data in both models could imply expected
or unexpected deviation from planned network design" — unapplied config
changes, hardware failures, fiber cuts, or misconfigurations.  These
audits join the two model groups (by component names, since Derived data
is collected without knowledge of Desired ids) and report mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fbnet.models import (
    Circuit,
    CircuitStatus,
    DerivedBgpSession,
    DerivedCircuit,
    DerivedInterface,
    BgpV4Session,
    BgpV6Session,
    OperStatus,
)
from repro.fbnet.store import ObjectStore

__all__ = ["AuditFinding", "AuditReport", "run_audit"]


@dataclass(frozen=True)
class AuditFinding:
    """One detected anomaly."""

    kind: str
    subject: str
    detail: str


@dataclass
class AuditReport:
    """All findings from one audit pass."""

    findings: list[AuditFinding] = field(default_factory=list)

    def add(self, kind: str, subject: str, detail: str) -> None:
        self.findings.append(AuditFinding(kind, subject, detail))

    def by_kind(self, kind: str) -> list[AuditFinding]:
        return [finding for finding in self.findings if finding.kind == kind]

    @property
    def clean(self) -> bool:
        return not self.findings


def _desired_circuit_endpoints(store: ObjectStore) -> dict[frozenset, Circuit]:
    endpoints = {}
    for circuit in store.all(Circuit):
        if circuit.status is CircuitStatus.DECOMMISSIONED:
            continue
        ends = circuit.endpoints()
        if ends is not None:
            key = frozenset((device.name, pif.name) for device, pif in ends)
            endpoints[key] = circuit
    return endpoints


def _derived_circuit_endpoints(store: ObjectStore) -> dict[frozenset, DerivedCircuit]:
    endpoints = {}
    for derived in store.all(DerivedCircuit):
        key = frozenset(
            (
                (derived.a_device_name, derived.a_interface_name),
                (derived.z_device_name, derived.z_interface_name),
            )
        )
        endpoints[key] = derived
    return endpoints


def audit_circuits(store: ObjectStore, report: AuditReport) -> None:
    """Desired circuits missing from LLDP, and LLDP links nobody planned.

    A missing circuit usually means a fiber cut, a miscable, or a config
    not yet deployed; an unexpected one means a miscable or a manual
    change (section 4.1.2's examples).
    """
    desired = _desired_circuit_endpoints(store)
    derived = _derived_circuit_endpoints(store)
    for key, circuit in desired.items():
        if key not in derived:
            ends = " <-> ".join(f"{d}:{i}" for d, i in sorted(key))
            report.add(
                "missing-circuit",
                circuit.name,
                f"planned circuit not observed via LLDP ({ends})",
            )
    for key in derived:
        if key not in desired:
            ends = " <-> ".join(f"{d}:{i}" for d, i in sorted(key))
            report.add(
                "unexpected-circuit",
                ends,
                "LLDP shows a link that exists in no Desired circuit",
            )


def audit_interfaces(store: ObjectStore, report: AuditReport) -> None:
    """Interfaces planned up but observed down."""
    for derived in store.all(DerivedInterface):
        if (
            derived.admin_status.value == "enabled"
            and derived.oper_status is OperStatus.DOWN
        ):
            report.add(
                "interface-down",
                f"{derived.device_name}:{derived.name}",
                "admin-enabled interface is operationally down",
            )


def audit_bgp_sessions(store: ObjectStore, report: AuditReport) -> None:
    """Desired BGP sessions not established on the network."""
    observed: dict[tuple[str, str], str] = {}
    for derived in store.all(DerivedBgpSession):
        observed[(derived.device_name, derived.peer_ip)] = derived.state
    for model in (BgpV4Session, BgpV6Session):
        for session in store.all(model):
            device = session.related("device")
            peer_device = session.related("peer_device")
            # Both endpoints of the session must be observed established —
            # one side's stale data must not mask the other side's failure.
            endpoints = [(device.name, session.peer_ip)]
            if peer_device is not None:
                endpoints.append((peer_device.name, session.local_ip))
            for endpoint_device, endpoint_peer_ip in endpoints:
                state = observed.get((endpoint_device, endpoint_peer_ip))
                if state is None:
                    report.add(
                        "bgp-not-observed",
                        f"{endpoint_device}->{endpoint_peer_ip}",
                        "desired session absent from collected BGP state",
                    )
                elif state != "established":
                    report.add(
                        "bgp-not-established",
                        f"{endpoint_device}->{endpoint_peer_ip}",
                        f"desired session observed in state {state!r}",
                    )


def run_audit(store: ObjectStore) -> AuditReport:
    """Run every Desired-vs-Derived audit; returns the combined report."""
    report = AuditReport()
    audit_circuits(store, report)
    audit_interfaces(store, report)
    audit_bgp_sessions(store, report)
    return report
