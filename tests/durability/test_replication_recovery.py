"""Replica resync modes and crash-consistent master recovery.

Covers the replication half of the tentpole: a master that dies at a
WAL crash point is recovered from disk, replicas resync *incrementally*
from their ``applied_position()`` (their journal is always a prefix of
what recovery restores, because shipping happens after the WAL append),
and the ``store.replication.resync`` counter distinguishes the modes.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.common.errors import ProcessCrash
from repro.faults.plan import FaultPlan
from repro.fbnet.durability import encode_record, store_digest
from repro.fbnet.replication import ReplicatedFBNet
from repro.simulation.clock import EventScheduler

from tests.invariants import store_violations

pytestmark = pytest.mark.durability

REGIONS = ["na-east", "na-west", "eu-central"]


@pytest.fixture
def cluster():
    return ReplicatedFBNet(REGIONS, "na-east", EventScheduler(), replication_lag=0.5)


def resync_count(region: str, mode: str) -> float:
    return obs.counter("store.replication.resync", region=region, mode=mode).value


class TestResyncModes:
    def test_lagging_replica_resyncs_incrementally(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "r1"})])
        cluster.scheduler.run_for(1.0)  # replicated everywhere
        cluster.disable_database("na-west")
        client.create_objects([("Region", {"name": "r2"})])
        client.create_objects([("Region", {"name": "r3"})])
        cluster.scheduler.run_for(1.0)  # arrives, lands in the backlog

        west = cluster.regions["na-west"]
        before = west.store  # prefix of the master: no rebuild needed
        cluster.recover_database("na-west")
        assert west.store is before, "incremental resync must keep the store"
        assert resync_count("na-west", "incremental") == 1
        assert resync_count("na-west", "full") == 0
        assert store_digest(west.store) == store_digest(cluster.master.store)

    def test_divergent_replica_falls_back_to_full(self, cluster):
        client = cluster.client("na-east")
        client.create_objects([("Region", {"name": "r1"})])
        cluster.scheduler.run_for(1.0)
        cluster.disable_database("na-west")
        west = cluster.regions["na-west"]
        # Poison the replica with a local write the master never saw.
        from repro.fbnet.models import Region

        west.store.create(Region, name="rogue")
        client.create_objects([("Region", {"name": "r2"})])
        cluster.scheduler.run_for(1.0)

        before = west.store
        cluster.recover_database("na-west")
        assert west.store is not before, "divergence must force a rebuild"
        assert resync_count("na-west", "full") == 1
        assert store_violations(west.store) == []
        assert store_digest(west.store) == store_digest(cluster.master.store)

    def test_fresh_replica_resync_is_incremental_from_zero(self, cluster):
        client = cluster.client("na-east")
        cluster.disable_database("eu-central")
        client.create_objects([("Region", {"name": "r1"})])
        cluster.scheduler.run_for(1.0)
        cluster.recover_database("eu-central")
        # An empty journal is a (trivial) prefix: still incremental.
        assert resync_count("eu-central", "incremental") == 1


class TestMasterCrashRecovery:
    def seeded_writes(self, cluster, count=4):
        client = cluster.client("na-east")
        for i in range(count):
            client.create_objects([("Region", {"name": f"r{i}"})])
        cluster.scheduler.run_for(1.0)
        return client

    @pytest.mark.parametrize("crash_point", ["wal.append_torn", "wal.append_crash"])
    def test_replicas_resync_from_recovered_master(
        self, tmp_path, cluster, crash_point, chaos_seed
    ):
        cluster.attach_master_durability(tmp_path)
        client = self.seeded_writes(cluster)

        plan = FaultPlan(seed=chaos_seed)
        plan.inject(crash_point, times=1)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            client.create_objects([("Region", {"name": "in-flight"})])
        faults.uninstall()

        recovered = cluster.recover_master(tmp_path)
        assert cluster.master.store is recovered
        assert store_violations(recovered) == []

        # Replica journals were prefixes — every resync was incremental.
        for region in ("na-west", "eu-central"):
            assert resync_count(region, "incremental") == 1
            assert resync_count(region, "full") == 0
            replica = cluster.regions[region].store
            assert store_digest(replica) == store_digest(recovered)
            assert [encode_record(r) for r in replica.journal] == [
                encode_record(r) for r in recovered.journal
            ]

        if crash_point == "wal.append_torn":
            # The in-flight write died with the torn frame.
            assert recovered.journal_position == 4
        else:
            # The frame was durable: the write survives the crash.
            assert recovered.journal_position == 5

    def test_recovered_master_keeps_shipping(self, tmp_path, cluster, chaos_seed):
        cluster.attach_master_durability(tmp_path)
        client = self.seeded_writes(cluster)

        plan = FaultPlan(seed=chaos_seed)
        plan.inject("wal.append_crash", times=1)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            client.create_objects([("Region", {"name": "in-flight"})])
        faults.uninstall()

        assert store_violations(cluster.recover_master(tmp_path)) == []
        # New writes replicate from the recovered store at the right
        # positions — no double-apply, no gap.
        client.create_objects([("Region", {"name": "post-recovery"})])
        cluster.scheduler.run_for(1.0)
        for region in ("na-west", "eu-central"):
            replica = cluster.regions[region].store
            assert store_digest(replica) == store_digest(cluster.master.store)
        assert cluster.client("na-west").count("Region") == 6

    def test_recovery_journal_bit_identical_across_seeds(self, tmp_path, chaos_seed):
        """Same seed, same crash, same recovered bytes — twice."""

        def run(root):
            obs.reset()
            faults.uninstall()
            cl = ReplicatedFBNet(
                REGIONS, "na-east", EventScheduler(), replication_lag=0.5
            )
            cl.attach_master_durability(root)
            client = self.seeded_writes(cl)
            plan = FaultPlan(seed=chaos_seed)
            plan.inject("wal.append_torn", times=1)
            faults.install(plan)
            with pytest.raises(ProcessCrash):
                client.create_objects([("Region", {"name": "in-flight"})])
            faults.uninstall()
            recovered = cl.recover_master(root)
            assert store_violations(recovered) == []
            return b"".join(encode_record(r) for r in recovered.journal)

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second
