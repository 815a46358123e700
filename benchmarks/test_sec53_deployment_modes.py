"""Section 5.3 — deployment-mode safety under injected faults.

The paper's four incremental-update mechanisms exist to bound blast
radius.  This bench deploys a fleet-wide config change under each mode
while injecting device faults, and measures what each mode let through:

* dryrun touches nothing;
* atomic mode leaves zero partially-updated devices after a mid-flight
  failure;
* phased mode stops at the failing phase, bounding exposure to the
  canary share;
* confirm mode reverts everything when verification fails.
"""

import json
import time

import pytest
from conftest import RESULTS_DIR, publish_report

from repro import Robotron, seed_environment
from repro.common.util import format_table
from repro.deploy.phases import PhaseSpec
from repro.fbnet.models import ClusterGeneration, Device


def build_network():
    robotron = Robotron()
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
    )
    robotron.boot_fleet()
    assert robotron.provision_cluster(cluster).ok
    return robotron


def updated_configs(robotron):
    """A fleet-wide incremental change: bump every device's MTU line."""
    configs = {}
    for device in robotron.store.all(Device):
        text = robotron.generator.golden[device.name].text
        configs[device.name] = text.replace("mtu 9192", "mtu 9100").replace(
            "mtu 9192;", "mtu 9100;"
        )
    return configs


def count_updated(robotron):
    return sum(
        1
        for device in robotron.fleet.devices.values()
        if "9100" in device.running_config
    )


def run_drill():
    results = {}

    # Dryrun: nothing changes, every diff produced.
    robotron = build_network()
    report = robotron.deployer.dryrun(updated_configs(robotron))
    results["dryrun"] = {
        "updated": count_updated(robotron),
        "diffs": len(report.diffs),
        "ok": report.ok,
    }

    # Atomic with a mid-flight failure: all-or-nothing.
    robotron = build_network()
    victims = sorted(robotron.fleet.devices)[7]
    robotron.fleet.get(victims).fail_next_commits = 1
    report = robotron.deployer.atomic_deploy(updated_configs(robotron))
    results["atomic+fault"] = {
        "updated": count_updated(robotron),
        "rolled_back": len(report.rolled_back),
        "ok": report.ok,
    }

    # Phased with a failing health check after the canary phase.
    robotron = build_network()
    phases = [PhaseSpec(name="canary", percentage=10),
              PhaseSpec(name="rest", percentage=100)]
    report = robotron.deployer.phased_deploy(
        updated_configs(robotron), phases, health_check=lambda batch: False
    )
    results["phased+bad-health"] = {
        "updated": count_updated(robotron),
        "skipped": len(report.skipped),
        "notified": bool(report.notifications),
    }

    # Confirmation without verification: immediate active revert.
    robotron = build_network()
    report = robotron.deployer.deploy_with_confirmation(
        updated_configs(robotron), grace_seconds=600, verify=lambda: False
    )
    results["confirm+no-verify"] = {
        "reverted": len(report.rolled_back),
        "updated_after_revert": count_updated(robotron),
    }

    # Guarded rollout: a failing canary restores last-known-good fleet-wide.
    robotron = build_network()
    victim = sorted(robotron.fleet.devices)[1]
    robotron.fleet.get(victim).fail_next_commits = 1
    result = robotron.guarded_deploy(
        updated_configs(robotron),
        [PhaseSpec(name="canary", percentage=25),
         PhaseSpec(name="rest", percentage=100)],
        bake_seconds=60,
    )
    results["guarded+fault"] = {
        "updated": count_updated(robotron),
        "outcome": result.outcome.value,
        "restored": len(result.restored),
    }

    # And the happy path: atomic deploy with no faults converges BGP.
    robotron = build_network()
    report = robotron.deployer.atomic_deploy(updated_configs(robotron))
    results["atomic+clean"] = {
        "updated": count_updated(robotron),
        "ok": report.ok,
        "bgp_established": robotron.fleet.all_bgp_established(),
    }
    results["fleet_size"] = len(robotron.fleet)
    return results


@pytest.fixture(scope="module")
def drill():
    started = time.perf_counter()
    results = run_drill()
    results["drill_seconds"] = time.perf_counter() - started
    return results


def test_sec53_deployment_mode_safety(benchmark, drill):
    results = benchmark.pedantic(lambda: drill, rounds=1, iterations=1)
    fleet = results["fleet_size"]

    rows = [
        ("dryrun", f"0/{fleet} devices touched, {results['dryrun']['diffs']} diffs"),
        (
            "atomic + commit fault",
            f"{results['atomic+fault']['updated']}/{fleet} left updated, "
            f"{results['atomic+fault']['rolled_back']} rolled back",
        ),
        (
            "phased + failing health",
            f"{results['phased+bad-health']['updated']}/{fleet} updated "
            f"(canary only), {results['phased+bad-health']['skipped']} skipped",
        ),
        (
            "confirm + no verification",
            f"{results['confirm+no-verify']['reverted']}/{fleet} actively "
            f"reverted, {results['confirm+no-verify']['updated_after_revert']} "
            "left updated",
        ),
        (
            "guarded + canary fault",
            f"{results['guarded+fault']['updated']}/{fleet} left updated, "
            f"outcome={results['guarded+fault']['outcome']}, "
            f"{results['guarded+fault']['restored']} restored to LKG",
        ),
        (
            "atomic, no faults",
            f"{results['atomic+clean']['updated']}/{fleet} updated, BGP "
            f"established={results['atomic+clean']['bgp_established']}",
        ),
    ]
    report = [
        "Section 5.3: deployment-mode safety drill (14-device POP)",
        "",
        format_table(("mode + injected fault", "outcome"), rows),
        "",
        "paper: dryrun previews, atomic rolls back whole transactions,",
        "phased halts on failed health metrics with notification,",
        "unconfirmed changes are actively reverted on the spot, and the",
        "guarded rollout restores every touched device to last-known-good.",
    ]
    publish_report("sec53_deployment_modes", "\n".join(report))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sec53_deployment_modes.json").write_text(
        json.dumps(
            {
                "fleet_size": fleet,
                "drill_seconds": results["drill_seconds"],
            },
            indent=2,
        )
        + "\n"
    )

    assert results["dryrun"]["updated"] == 0
    assert results["dryrun"]["diffs"] == fleet
    assert results["atomic+fault"]["updated"] == 0
    assert not results["atomic+fault"]["ok"]
    assert results["phased+bad-health"]["updated"] == 2  # ceil(10% of 14)
    assert results["phased+bad-health"]["notified"]
    assert results["confirm+no-verify"]["reverted"] == fleet
    assert results["confirm+no-verify"]["updated_after_revert"] == 0
    assert results["guarded+fault"]["updated"] == 0
    assert results["guarded+fault"]["outcome"] == "rolled_back"
    assert results["atomic+clean"]["updated"] == fleet
    assert results["atomic+clean"]["bgp_established"]
