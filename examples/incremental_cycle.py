"""Incremental change propagation: one FBNet edit, one device touched.

Provision a POP cluster, then walk the steady-state loop the paper's
scale demands: mutate the design, let ``incremental_cycle`` follow the
journal records committed since the last cycle — each looked up once in
an index over every config's read-set — regenerate and push only the
configs they invalidate, and point the drift sweep at the devices that
just changed.

Run:  python examples/incremental_cycle.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Robotron, obs, seed_environment
from repro.fbnet.models import ClusterGeneration, DrainState, PhysicalInterface


def show(title: str, report) -> None:
    gen = report.generation
    print(f"\n--- {title} ---")
    print(f"dirty: {dict(gen.dirty) or '{}'}")
    print(f"regenerated {len(gen.regenerated)}, skipped {len(gen.skipped)}, "
          f"new journal records followed: {gen.records_scanned}")
    if report.deploy is not None:
        print(f"deployed: {report.deploy.succeeded} "
              f"(content-hash skipped: {report.deploy.skipped})")
    print(f"drift found: {[d.device for d in report.discrepancies]}")
    print(f"cycle ok: {report.ok}")


def main() -> None:
    robotron = Robotron()
    env = seed_environment(robotron.store)
    cluster = robotron.build_cluster(
        "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2,
    )
    robotron.boot_fleet()
    robotron.provision_cluster(cluster)
    robotron.attach_monitoring()
    print(f"provisioned {len(cluster.all_devices())} devices")

    # A cycle with no design changes is a cheap no-op.
    show("cycle 1: nothing changed", robotron.incremental_cycle())

    # An engineer relabels one physical interface: exactly one device's
    # read-set matches the journal record, so only it regenerates.
    pif = robotron.store.all(PhysicalInterface)[0]
    robotron.store.update(pif, description="recabled to rack 7")
    show("cycle 2: one interface relabeled", robotron.incremental_cycle())

    # Draining a router regenerates it (sessions shut down in config)
    # and the prioritized sweep checks it first.
    router = cluster.devices["PR"][0]
    robotron.store.update(router, drain_state=DrainState.DRAINING)
    show("cycle 3: router drained", robotron.incremental_cycle())

    # Convergence: the next cycle finds nothing left to do.
    show("cycle 4: converged", robotron.incremental_cycle())

    print("\n--- configgen counters across the run ---")
    for name in ("configgen.dirty", "configgen.skipped",
                 "configgen.regenerated"):
        print(f"{name}: {obs.counter(name).value:.0f}")
    skip = obs.counter("deploy.skip_unchanged", op="deploy")
    print(f"deploy.skip_unchanged: {skip.value:.0f}")


if __name__ == "__main__":
    main()
