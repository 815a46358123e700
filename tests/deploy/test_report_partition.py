"""Every deployment mode accounts for every device it was handed.

One property over all the ways configs reach the fleet, under a seeded
``deploy.push`` fault and one crashed device: each name in ``configs`` ends
in one of the report's ``succeeded``, ``failed``, ``skipped`` or
``rolled_back`` lists — a rollout that stops early may not lose the devices
it never reached — and ``changed_lines`` counts only devices left on their
new config, so a fully reverted operation reports zero changed lines.
"""

import random

import pytest

from repro import faults
from repro.deploy.deployer import Deployer, cluster_domain
from repro.deploy.guard import DeploymentGuard
from repro.deploy.phases import PhaseSpec
from repro.devices.fleet import DeviceFleet
from repro.faults import FaultPlan
from repro.simulation.clock import EventScheduler

PHASES = [
    PhaseSpec(name="canary", percentage=25),
    PhaseSpec(name="rest", percentage=100),
]
ONE_PHASE = [PhaseSpec(name="all", percentage=100)]

MODES = {
    "initial_provision": lambda d, g, c: d.initial_provision(c),
    "deploy": lambda d, g, c: d.deploy(c),
    "atomic_deploy": lambda d, g, c: d.atomic_deploy(c),
    "phased_deploy": lambda d, g, c: d.phased_deploy(c, ONE_PHASE),
    "phased_deploy+breaker": lambda d, g, c: d.phased_deploy(
        c, PHASES, max_failure_ratio=0.3
    ),
    "deploy_with_confirmation": lambda d, g, c: d.deploy_with_confirmation(
        c, verify=lambda: False
    ),
    "guard.rollout": lambda d, g, c: g.rollout(c, ONE_PHASE, bake_seconds=0.0).report,
}


def config(name, mtu):
    return f"hostname {name}\ninterface ae0\n mtu {mtu}\n no shutdown\n!\n"


@pytest.mark.parametrize("seed", [1337, 20160816, 7])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_device_lands_in_one_list(mode, seed):
    fleet = DeviceFleet(EventScheduler())
    names = [f"pop01.c{cluster}.d{index}" for cluster in (1, 2) for index in range(4)]
    for name in names:
        fleet.add_device(name, "vendor1", role="psw")
        fleet.get(name).commit(config(name, 9192))
    deployer = Deployer(fleet, domain_of=cluster_domain)  # waves of two
    guard = DeploymentGuard(deployer, fleet)
    fleet.get(random.Random(seed).choice(names)).crash()
    previous = {name: fleet.get(name).running_config for name in names}
    configs = {name: config(name, 9000) for name in names}

    plan = FaultPlan(seed=seed)
    plan.inject("deploy.push", probability=0.25)
    faults.install(plan)
    report = MODES[mode](deployer, guard, configs)

    landed = (
        report.succeeded + list(report.failed) + report.skipped + report.rolled_back
    )
    assert set(landed) == set(configs), sorted(set(configs) - set(landed))
    for name, lines in report.changed_lines.items():
        assert lines == 0 or fleet.get(name).running_config == configs[name], name
    if all(fleet.get(name).running_config == previous[name] for name in names):
        assert report.total_changed_lines() == 0
