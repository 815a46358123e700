"""Failure drills: the section 8 war stories, plus database failover.

* **Stale configs** — Engineer A generates configs, Engineer B changes the
  design, A deploys days later.  The paper's incident dropped racks; the
  reproduction's staleness check catches it pre-deploy.
* **Phased rollout halting** — a bad change reaches only the canary share
  before health metrics stop it (section 5.3.2).
* **FBNet master failover** — design work continues after the master
  database region is lost (section 4.3.3).

Run:  python examples/failure_drills.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Robotron, seed_environment
from repro.deploy.phases import PhaseSpec
from repro.fbnet.models import (
    AggregatedInterface,
    ClusterGeneration,
    Device,
    Rack,
    RackProfile,
)
from repro.fbnet.query import Expr, Op


def build() -> Robotron:
    robotron = Robotron()
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "dc01.c01", env.datacenters["dc01"], ClusterGeneration.DC_GEN2
    )
    robotron.boot_fleet()
    assert robotron.provision_cluster(cluster).ok
    robotron.env = env  # type: ignore[attr-defined]
    return robotron


def drill_stale_configs() -> None:
    print("== Drill 1: stale configs (section 8) ==")
    robotron = build()
    psw1 = robotron.store.first(Device, Expr("name", Op.EQUAL, "dc01.c01.psw1"))

    # Engineer A generates configs but doesn't deploy.
    config_a = robotron.generator.generate_device(psw1)
    print(f"Engineer A generated config at design position "
          f"{config_a.design_position}")

    # Someone adds a rack: the journal moves, but not what A's config read.
    profile = robotron.store.create(
        RackProfile, name="hot-rack", downlinks_per_rack=12
    )
    robotron.store.create(
        Rack, name="rack-z", cluster=psw1.related("cluster"), rack_profile=profile
    )
    assert not robotron.generator.is_stale(config_a)
    print("an unrelated rack was added: config still current")

    # Engineer B changes the design A's config was generated from.
    aggregate = robotron.store.first(
        AggregatedInterface, Expr("device", Op.EQUAL, psw1.id)
    )
    robotron.store.update(aggregate, mtu=1500)
    print(f"Engineer B changed the design ({aggregate.name} mtu 1500)")

    if robotron.generator.is_stale(config_a):
        print("deploy blocked: config predates a later design change — "
              "regenerate first\n")
    else:
        raise AssertionError("staleness check failed to fire")


def drill_phased_halt() -> None:
    print("== Drill 2: phased rollout halts on failed health ==")
    robotron = build()
    configs = {}
    for device in robotron.store.all(Device):
        text = robotron.generator.golden[device.name].text
        configs[device.name] = text.replace("mtu 9192", "mtu 1500").replace(
            "mtu 9192;", "mtu 1500;"
        )  # a bad change: tiny MTU

    def health_check(batch):
        # The metric-driven gate notices the canary devices misbehaving.
        print(f"  health check over {len(batch)} canary device(s): FAIL")
        return False

    report = robotron.deployer.phased_deploy(
        configs,
        [PhaseSpec(name="canary", percentage=10),
         PhaseSpec(name="fleet", percentage=100)],
        health_check=health_check,
    )
    blast_radius = len(report.succeeded)
    print(f"bad change reached {blast_radius}/{len(configs)} devices; "
          f"{len(report.skipped)} spared; notifications: "
          f"{report.notifications}\n")


def drill_master_failover() -> None:
    print("== Drill 3: FBNet master region loss ==")
    from repro.fbnet.replication import ReplicatedFBNet
    from repro.simulation.clock import EventScheduler

    scheduler = EventScheduler()
    cluster = ReplicatedFBNet(
        ["na-east", "na-west", "eu-central"], "na-east", scheduler
    )
    client = cluster.client("eu-central")
    client.create_objects([("Region", {"name": "before-failure"})])
    scheduler.run_for(1.0)

    cluster.fail_master()
    print("master region na-east lost; writes fail until promotion")
    new_master = cluster.promote_nearest()
    print(f"promoted {new_master}; resuming design work")
    client.create_objects([("Region", {"name": "after-failover"})])
    scheduler.run_for(1.0)
    print(f"eu-central sees {client.count('Region')} objects; "
          f"promotion history: {cluster.promotions}")


def drill_concurrent_design_changes() -> None:
    print("\n== Drill 4: concurrent design changes serialized (section 8) ==")
    from repro.design.concurrency import ChangeCoordinator, DesignConflict

    robotron = build()
    coordinator = ChangeCoordinator(robotron.store)
    profile = robotron.store.create(
        RackProfile, name="contested-rack", downlinks_per_rack=4
    )
    key = ("RackProfile", profile.id)

    engineer_a = coordinator.propose(
        employee_id="engineer-a", ticket_id="NET-A",
        description="set downlinks=8", touches={key},
        mutate=lambda s: s.update(s.get(RackProfile, profile.id),
                                  downlinks_per_rack=8),
    )
    engineer_b = coordinator.propose(
        employee_id="engineer-b", ticket_id="NET-B",
        description="set downlinks=12", touches={key},
        mutate=lambda s: s.update(s.get(RackProfile, profile.id),
                                  downlinks_per_rack=12),
    )
    coordinator.commit(engineer_b)
    print("engineer B committed first (downlinks=12)")
    try:
        coordinator.commit(engineer_a)
    except DesignConflict as conflict:
        print(f"engineer A rejected: {conflict}")
    fresh = coordinator.rebase(engineer_a)
    coordinator.commit(fresh)
    print(f"engineer A rebased and committed; final downlinks="
          f"{profile.downlinks_per_rack}")


def main() -> None:
    drill_stale_configs()
    drill_phased_halt()
    drill_master_failover()
    drill_concurrent_design_changes()


if __name__ == "__main__":
    main()
