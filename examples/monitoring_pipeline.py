"""The monitoring pipelines: passive syslog, active polling, config drift.

Shows section 5.4 working as one system: classified syslog alerts from
the anycast bus (Table 3's rule table), the three-tier active pipeline
populating Derived models (Figure 11), and config monitoring detecting an
out-of-band manual change, backing it up, and restoring the golden config
(section 5.4.3 + the "Automation Fallbacks" lesson of section 8).

Run:  python examples/monitoring_pipeline.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Robotron, obs, seed_environment
from repro.fbnet.models import (
    ClusterGeneration,
    DerivedBgpSession,
    DerivedCircuit,
    DerivedInterface,
)


def main() -> None:
    robotron = Robotron()
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
    )
    robotron.boot_fleet()
    robotron.provision_cluster(cluster)
    robotron.attach_monitoring()

    print("== Active monitoring populates Derived models ==")
    robotron.run_minutes(10)
    store = robotron.store
    print(f"engine event counts : {robotron.jobs.event_counts()}")
    print(f"derived interfaces  : {store.count(DerivedInterface)}")
    print(f"derived circuits    : {store.count(DerivedCircuit)} (from LLDP pairs)")
    print(f"derived BGP sessions: {store.count(DerivedBgpSession)}\n")

    print("== Passive monitoring classifies syslog ==")
    psw1 = robotron.fleet.get("pop01.c01.psw1")
    psw1.emit_syslog("EVENT", "Interface ae0 link state down")
    psw1.emit_syslog("EVENT", "LSP change: path recomputed")  # noise
    psw1.emit_syslog("EVENT", "TCAM error detected on unit 0")
    for alert in robotron.classifier.alerts[-2:]:
        print(f"alert: [{alert.severity.name}] {alert.device}: {alert.message}")
    counts = {
        severity.name: count
        for severity, (count, _pct) in robotron.classifier.severity_table().items()
        if count
    }
    print(f"classified counts so far: {counts}")
    # searches/messages is what a message costs; it grows with always_walked,
    # the rules the prefilter could derive no required literal for.
    print(f"classifier cost so far  : {robotron.classifier.stats()}\n")

    print("== Config drift: manual change detected and curtailed ==")
    emergency = psw1.running_config + "interfaces {\n    et9/9 {\n    }\n}\n"
    psw1.commit(emergency)  # an engineer bypasses Robotron
    drift = robotron.confmon.discrepancies[-1]
    print(f"drift detected on {drift.device}; diff excerpt:")
    print("\n".join(drift.diff.splitlines()[:8]))
    print(f"backup revisions kept: "
          f"{robotron.confmon.backup.revision_count(psw1.name)}")
    robotron.confmon.restore_golden(psw1.name)
    print(f"restored to golden: "
          f"{psw1.running_config == robotron.generator.golden[psw1.name].text}")

    print("\n== Fault: fiber cut shows up in the audit ==")
    robotron.fleet.unwire("pop01.c01.pr1", "et1/0")
    robotron.run_minutes(10)
    audit = robotron.audit()
    for finding in audit.findings[:4]:
        print(f"finding: {finding.kind}: {finding.subject} — {finding.detail}")

    # Robotron monitors itself too: every store transaction, config
    # render, deployment, and monitoring job above left ODS-style
    # counters and trace spans behind in repro.obs.
    print("\n== Robotron self-telemetry (repro.obs) ==")
    print(obs.report(max_trace_roots=8))


if __name__ == "__main__":
    main()
