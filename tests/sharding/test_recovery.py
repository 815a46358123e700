"""A sharded store's durable root: the plain store's, plus homes.

The router logs to one WAL file exactly as a plain store does; its
header says ``shards: N`` and every frame carries one home
shard per record, so recovery rebuilds an N-shard store with every row
back where it lived.  ``Robotron.recover`` and replication's
``recover_master`` go through the same ``recover_store`` as a plain root.
The frame-level reader checks live in ``tests/durability/test_sharded_log.py``.
"""

from __future__ import annotations

import pytest

from repro import Robotron, faults, obs, seed_environment
from repro.common.errors import DurabilityError, ProcessCrash
from repro.faults.plan import FaultPlan
from repro.fbnet.durability import encode_record, store_digest
from repro.fbnet.models import ClusterGeneration, Region
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.sharding import ShardedObjectStore
from repro.simulation.clock import EventScheduler

pytestmark = [pytest.mark.sharding, pytest.mark.durability]


def spread_regions(store, count=12):
    """Writes guaranteed to touch more than one shard (when sharded >1)."""
    return [
        store.create(Region, name=f"region-{i:02d}") for i in range(count)
    ]


class TestDurableLayout:
    def test_shard_count_mismatch_refuses_attach(self, tmp_path, sharded):
        # A root is adopted by recovering it, which builds a store with
        # the shard count the root names; no other store may attach.
        sharded.attach_durability(tmp_path)
        other = ShardedObjectStore(shards=5)
        with pytest.raises(DurabilityError, match="already holds"):
            other.attach_durability(tmp_path)
        recovered = ShardedObjectStore.recover(tmp_path, attach=False)
        assert recovered.shard_count == 4

    def test_plain_recover_refuses_sharded_root(self, tmp_path, sharded):
        sharded.attach_durability(tmp_path)
        spread_regions(sharded)
        with pytest.raises(DurabilityError):
            ShardedObjectStore.recover(tmp_path / "missing")


class TestRoundTrip:
    def test_every_shard_recovers_independently(self, tmp_path, sharded):
        """Every shard comes back with its rows (from the one log)."""
        sharded.attach_durability(tmp_path)
        env = seed_environment(sharded)
        regions = spread_regions(sharded)
        sharded.update(regions[3], name="region-renamed")
        sharded.delete(regions[5])

        recovered = ShardedObjectStore.recover(tmp_path, attach=False)
        assert store_digest(recovered) == store_digest(sharded)
        assert recovered._home == sharded._home
        assert recovered.shard_sizes() == sharded.shard_sizes()
        assert [encode_record(r) for r in recovered.journal] == [
            encode_record(r) for r in sharded.journal
        ]
        assert recovered.name == sharded.name
        assert env.pops.keys() == {
            p.name for p in recovered.all(type(next(iter(env.pops.values()))))
        }

    def test_recovered_store_keeps_journaling(self, tmp_path, sharded):
        sharded.attach_durability(tmp_path)
        spread_regions(sharded, 6)
        recovered = ShardedObjectStore.recover(tmp_path)
        recovered.create(Region, name="region-post")
        second = ShardedObjectStore.recover(tmp_path, attach=False)
        assert store_digest(second) == store_digest(recovered)
        assert second.count(Region) == 7


class TestTornShard:
    def torn_update(self, tmp_path, sharded):
        """Tear the WAL append of one more commit; returns the state before it."""
        sharded.attach_durability(tmp_path)
        region = spread_regions(sharded)[-1]
        before = store_digest(sharded), sharded.shard_sizes()
        plan = FaultPlan(seed=1)
        plan.inject("wal.append_torn", times=1, store=sharded.name)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            sharded.update(region, name="region-torn")
        faults.uninstall()
        return before

    def test_torn_shard_loses_only_its_last_commit(self, tmp_path, sharded):
        before, sizes = self.torn_update(tmp_path, sharded)
        recovered = ShardedObjectStore.recover(tmp_path, attach=False)
        assert store_digest(recovered) == before
        assert recovered.shard_sizes() == sizes
        assert (
            obs.counter("store.wal.torn_truncated", store=sharded.name).value
            == 1
        )

    def test_torn_shard_is_reusable_after_recovery(self, tmp_path, sharded):
        self.torn_update(tmp_path, sharded)
        recovered = ShardedObjectStore.recover(tmp_path)  # attaches + truncates
        recovered.create(Region, name="region-post")
        second = ShardedObjectStore.recover(tmp_path, attach=False)
        assert store_digest(second) == store_digest(recovered)
        assert second.count(Region) == 13


class TestFacadeDispatch:
    def test_robotron_recover_rebuilds_a_sharded_store(self, tmp_path):
        for shards in (1, 4):
            robotron = Robotron(shards=shards)
            robotron.attach_durability(tmp_path / str(shards))
            env = seed_environment(robotron.store)
            robotron.build_cluster(
                "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
            )

            revived = Robotron.recover(tmp_path / str(shards))
            assert isinstance(revived.store, ShardedObjectStore)
            assert len(revived.store.shards) == shards
            assert store_digest(revived.store) == store_digest(robotron.store)

    def test_robotron_recover_still_handles_plain_roots(self, tmp_path):
        robotron = Robotron()
        robotron.attach_durability(tmp_path)
        seed_environment(robotron.store)
        revived = Robotron.recover(tmp_path)
        assert not isinstance(revived.store, ShardedObjectStore)
        assert store_digest(revived.store) == store_digest(robotron.store)

    def test_recover_master_rebuilds_a_sharded_master(self, tmp_path):
        for shards in (1, 4):
            cluster = ReplicatedFBNet(
                ["na-east", "na-west"],
                "na-east",
                EventScheduler(),
                store_factory=lambda name, n=shards: ShardedObjectStore(shards=n, name=name),
            )
            assert isinstance(cluster.master.store, ShardedObjectStore)
            cluster.master.store.attach_durability(tmp_path / str(shards))
            client = cluster.client("na-east")
            client.create_objects([("Region", {"name": f"region-{i:02d}"}) for i in range(6)])
            cluster.scheduler.run_for(1.0)
            before = store_digest(cluster.master.store)

            recovered = cluster.recover_master(tmp_path / str(shards))
            assert isinstance(recovered, ShardedObjectStore)
            assert store_digest(recovered) == before
            west = cluster.regions["na-west"]
            assert store_digest(west.store) == before
