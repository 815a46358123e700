"""Closed-loop benchmark — detection-to-verified convergence time.

The remediation engine's promise is that a storm of concurrent faults
(drift on every device of a DC cluster, an urgent-syslog burst, seeded
push failures) converges to a settled fleet — every device ``verified``
or ``quarantined`` — in a bounded number of sweeps.  This bench runs
the acceptance storm once and records two timings:

* ``convergence_seconds`` — wall time of the remediation loop itself
  (detection already queued → every device settled), the engine's
  end-to-end cost on this machine; ``convergence_ref_s`` is the same in
  the ledger's reference-speed seconds, held to an absolute budget by
  the ``BENCH_remediation`` row of ``check_ledger.py``.
* ``simulated_seconds`` — how much *simulated* time the loop consumed,
  a deterministic measure of sweep cadence (periods + triage + bake).

The storm is the same seeded scenario the chaos matrix replays in CI;
determinism of its outcome is asserted in
``tests/remediation/test_convergence.py`` — here we only require it
converges and time it.
"""

import json
import random

from conftest import RESULTS_DIR, publish_report, reference_seconds

from repro import Robotron, faults, obs, seed_environment
from repro.common.util import format_table
from repro.faults.plan import FaultPlan
from repro.fbnet.models import ClusterGeneration
from repro.remediation import RemediationPolicy

SEED = 1337
BURST = 5
MAX_SWEEPS = 30


def drift(device) -> None:
    if device.vendor == "vendor1":
        hacked = device.running_config + "interface et9/9\n no shutdown\n!\n"
    else:
        hacked = device.running_config + "interfaces {\n    et9/9 {\n    }\n}\n"
    device.commit(hacked)


def test_bench_remediation_convergence(benchmark):
    obs.reset()
    faults.uninstall()
    rng = random.Random(SEED)
    robotron = Robotron()
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
    )
    robotron.boot_fleet()
    provisioned = robotron.provision_cluster(cluster)
    assert provisioned.ok, provisioned.failed
    robotron.attach_monitoring()
    robotron.attach_remediation(
        RemediationPolicy(bake_seconds=0.0, cooldown_seconds=120.0)
    )

    names = sorted(robotron.fleet.devices)
    for name in names:
        drift(robotron.fleet.get(name))
    for name in sorted(rng.sample(names, BURST)):
        robotron.fleet.get(name).emit_syslog(
            "HW", "Critical Power lost on PSU 1"
        )
    plan = FaultPlan(seed=SEED)
    plan.inject("deploy.push", probability=0.1, times=10)
    robotron.install_fault_plan(plan)

    sim_start = robotron.scheduler.clock.now
    report = None
    timed = reference_seconds()

    def converge():
        nonlocal report
        with timed:
            report = robotron.remediation_loop(max_sweeps=MAX_SWEEPS, period=60.0)

    benchmark.pedantic(converge, rounds=1, iterations=1)
    faults.uninstall()

    assert report.converged, report.states
    assert len(report.states) >= 20
    assert set(report.states.values()) <= {"verified", "quarantined"}
    simulated_seconds = robotron.scheduler.clock.now - sim_start

    rows = [
        ("devices in storm", str(len(report.states))),
        ("syslog burst", str(BURST)),
        ("sweeps to converge", str(report.sweeps)),
        ("actions taken", str(len(report.actions))),
        ("verified", str(len(report.verified))),
        ("quarantined", str(len(report.quarantined))),
        ("wall convergence", f"{timed.raw_s:.3f}s"),
        ("at the ledger's reference speed", f"{timed.ref_s:.3f}s"),
        ("simulated convergence", f"{simulated_seconds:.0f}s"),
    ]
    text = [
        "Closed-loop remediation convergence",
        f"(storm: DC Gen2 drift + syslog burst, seed {SEED})",
        "",
        format_table(("measure", "value"), rows),
        "",
        "Every device settled as verified or quarantined; the reference-",
        "speed time of the detect → act → verify loop is held to an",
        "absolute budget by benchmarks/check_ledger.py.",
    ]
    publish_report("BENCH_remediation", "\n".join(text))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_remediation.json").write_text(
        json.dumps(
            {
                "devices": len(report.states),
                "seed": SEED,
                "sweeps": report.sweeps,
                "actions": len(report.actions),
                "verified": len(report.verified),
                "quarantined": len(report.quarantined),
                "convergence_seconds": timed.raw_s,
                "convergence_ref_s": timed.ref_s,
                "simulated_seconds": simulated_seconds,
            },
            indent=2,
        )
        + "\n"
    )
