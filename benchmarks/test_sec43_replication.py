"""Section 4.3.3 — FBNet replication, failover, and service routing.

The paper claims: reads are served region-locally (lower latency), writes
forward to the master region, replication lag is typically under one
second, a lagging or failed slave is disabled with reads redirecting to
the master, and a failed master is replaced by promoting the nearest
slave.  This bench exercises the replicated store under load and measures
convergence and availability through the failure sequence — including
the lossy one: a master that dies with commits still in flight.
"""

import pytest
from conftest import publish_report

from repro import obs
from repro.common.util import format_table
from repro.fbnet.durability import store_digest
from repro.fbnet.models import Region
from repro.fbnet.replication import ReplicatedFBNet
from repro.simulation.clock import EventScheduler

REGIONS = ["na-east", "na-west", "eu-central", "ap-south"]
WRITES = 300
#: Commits still in flight when the second master dies (phase 5).
IN_FLIGHT = 5


def replication_drill():
    scheduler = EventScheduler()
    cluster = ReplicatedFBNet(
        REGIONS, "na-east", scheduler, replication_lag=0.5,
        read_replicas_per_region=2,
    )
    outcomes = {}

    # Phase 1: steady-state — remote clients write through the master.
    client = cluster.client("ap-south")
    for index in range(WRITES):
        client.create_objects([("Region", {"name": f"obj-{index:04d}"})])
    outcomes["lag_before_pump"] = cluster.measured_lag("ap-south")
    outcomes["local_visible_before"] = client.count("Region")
    outcomes["raw_visible_before"] = client.count(
        "Region", consistency="read-after-write"
    )
    scheduler.run_for(1.0)
    outcomes["local_visible_after"] = client.count("Region")

    # Phase 2: a replica database fails; its region keeps reading.
    cluster.disable_database("ap-south")
    client.create_objects([("Region", {"name": "during-outage"})])
    outcomes["reads_during_replica_outage"] = client.count("Region")
    cluster.recover_database("ap-south")
    outcomes["reads_after_recovery"] = client.count("Region")

    # Phase 3: every service replica in a region crashes; reads redirect
    # to the nearest live region (after lag, so the neighbor is caught up).
    scheduler.run_for(1.0)
    for replica in cluster.regions["ap-south"].read_replicas:
        replica.crash()
    outcomes["reads_via_neighbor"] = client.count("Region")
    for replica in cluster.regions["ap-south"].read_replicas:
        replica.recover()

    # Phase 4: master loss and promotion of the nearest healthy slave.
    scheduler.run_for(1.0)
    cluster.fail_master()
    new_master = cluster.promote_nearest()
    outcomes["new_master"] = new_master
    client.create_objects([("Region", {"name": "after-promotion"})])
    scheduler.run_for(1.0)
    outcomes["final_count_everywhere"] = [
        cluster.regions[name].store.count(Region)
        for name in REGIONS
        if cluster.regions[name].db_healthy
    ]

    # Phase 5: the new master is lost with commits still in flight.  The
    # next-nearest slave takes over without them, the dead master's
    # arrivals are dropped rather than applied, and the survivors follow
    # the new master's journal to the same bytes.
    for index in range(IN_FLIGHT):
        client.create_objects([("Region", {"name": f"in-flight-{index}"})])
    lost_master = cluster.master.store
    cluster.fail_master()
    outcomes["second_master"] = cluster.promote_nearest()
    outcomes["records_lost"] = (
        lost_master.journal_position - cluster.master.store.journal_position
    )
    scheduler.run_for(1.0)  # the dead master's arrivals land
    client.create_objects([("Region", {"name": "after-lossy-promotion"})])
    scheduler.run_for(1.0)
    outcomes["stale_arrivals"] = int(
        sum(
            series.value
            for series in obs.registry().series()
            if series.name == "replication.stale_arrival"
        )
    )
    healthy = [r for r in cluster.regions.values() if r.db_healthy]
    outcomes["healthy_after_lossy"] = [region.name for region in healthy]
    outcomes["digests_equal"] = (
        len({store_digest(region.store) for region in healthy}) == 1
    )
    outcomes["reads_after_lossy"] = client.count("Region")
    return outcomes


@pytest.fixture(scope="module")
def drill():
    return replication_drill()


def test_sec43_replication_and_failover(benchmark, drill):
    outcomes = benchmark.pedantic(lambda: drill, rounds=1, iterations=1)

    rows = [
        ("writes issued", WRITES + 2 + IN_FLIGHT + 1),
        ("replica lag right after write burst", f"{outcomes['lag_before_pump']:.2f}s"),
        ("local reads before lag elapsed", outcomes["local_visible_before"]),
        ("read-after-write reads (master region)", outcomes["raw_visible_before"]),
        ("local reads after <1s lag", outcomes["local_visible_after"]),
        ("reads during replica DB outage", outcomes["reads_during_replica_outage"]),
        ("reads after replica recovery", outcomes["reads_after_recovery"]),
        ("reads with all local service replicas down", outcomes["reads_via_neighbor"]),
        ("promoted master", outcomes["new_master"]),
        ("healthy-region row counts after promotion", outcomes["final_count_everywhere"]),
        ("second master lost with commits in flight", IN_FLIGHT),
        ("promoted master after the lossy failover", outcomes["second_master"]),
        ("records lost with the old master", outcomes["records_lost"]),
        ("stale arrivals dropped", outcomes["stale_arrivals"]),
        ("local reads after the lossy failover", outcomes["reads_after_lossy"]),
        (
            "healthy-region digests equal",
            "yes" if outcomes["digests_equal"] else "NO",
        ),
    ]
    report = [
        "Section 4.3.3: replication, lag, and failover drill",
        "",
        format_table(("observation", "value"), rows),
        "",
        "paper: async replication with typical lag under one second;",
        "reads local, writes at master; lagging/failed slaves disabled",
        "with reads redirected; nearest slave promoted on master failure",
        "(asynchronous replication loses the in-flight tail with the master;",
        "what the dead master announced is dropped, never applied).",
    ]
    publish_report("sec43_replication", "\n".join(report))

    # Typical lag under one second: after 1s everything converged.
    assert outcomes["lag_before_pump"] <= 1.0
    assert outcomes["local_visible_after"] == WRITES
    # Read-after-write saw everything immediately.
    assert outcomes["raw_visible_before"] == WRITES
    # Availability held through replica DB loss, replica process loss,
    # and master promotion.
    assert outcomes["reads_during_replica_outage"] == WRITES + 1
    assert outcomes["reads_via_neighbor"] >= WRITES + 1
    assert outcomes["new_master"] == "na-west"
    final = outcomes["final_count_everywhere"]
    assert len(set(final)) == 1  # all healthy regions converged
    # The lossy failover: the in-flight tail died with the master, every
    # arrival it had announced was dropped, and the survivors agree.
    assert outcomes["second_master"] == "eu-central"
    assert outcomes["records_lost"] == IN_FLIGHT
    assert outcomes["stale_arrivals"] == IN_FLIGHT * (len(REGIONS) - 1)
    assert outcomes["healthy_after_lossy"] == ["eu-central", "ap-south"]
    assert outcomes["digests_equal"]
    assert outcomes["reads_after_lossy"] == WRITES + 2 + 1
