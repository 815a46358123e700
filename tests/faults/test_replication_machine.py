"""The replication predicate, checked once (ROADMAP item 1's oracle, replication slice).

A hypothesis state machine drives a four-region :class:`ReplicatedFBNet`
through random histories — writes through any region's client, clock
ticks, ``replication.apply`` lag spikes, deferred commit notifications,
replica databases disabled and recovered, health checks, master loss
and promotion, rejoins, service-replica crashes, reads — and after
**every** step asserts the invariants this module owns:

1. *Prefix.*  Every healthy non-master region's journal is a prefix of
   the master's (what a region has applied is the master's log up to
   its own cursor: nothing skipped, nothing doubled, nothing foreign).
2. *Serving rule.*  Every read replica is bound to the store and cache
   of its own region — unless that is a non-master region with its
   database disabled, which is bound to the master's; the write tier is
   bound to the master's store.
3. *Cache over store.*  Every cache fronts the store its replica serves,
   and a read through the front door equals a fresh read of that store.

At teardown the faults stop, every disabled database recovers, the
clock runs two minutes, and every region's ``store_digest`` is equal.

It replaces no suite yet: ROADMAP item 1 folds the hand-written
replication / cache / failover suites into the one oracle, and these
three invariants are the part of it that is already stated.  Seeded by
``CHAOS_SEED`` — the ``chaos`` CI matrix runs it per seed.
"""

from __future__ import annotations

import pytest
from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import faults, obs
from repro.common.errors import ReplicationError
from repro.faults import FaultPlan, RetryPolicy
from repro.fbnet.api import ReadApi
from repro.fbnet.durability import store_digest
from repro.fbnet.models import Region
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.sharding import ShardedObjectStore

pytestmark = pytest.mark.faults

REGIONS = ["a", "b", "c", "d"]
regions = st.sampled_from(REGIONS)
picks = st.integers(min_value=0, max_value=1 << 16)


def assert_serving_rule(net: ReplicatedFBNet) -> None:
    """Invariants 2 and 3 over every service replica of ``net``."""
    master = net.master
    for region in net.regions.values():
        serving = region if region.db_healthy or region is master else master
        for replica in region.read_replicas:
            assert replica._store is serving.store, replica.name
            assert replica.cache is serving.cache, replica.name
            if replica.cache is not None:
                assert replica.cache.store is replica._store, replica.name
    assert master.write_replicas
    for replica in master.write_replicas:
        assert replica._store is master.store, replica.name


class ReplicationMachine(RuleBasedStateMachine):
    cache_reads = False
    sharded = False
    chaos_seed = 1337

    def __init__(self):
        super().__init__()
        obs.reset()
        self.plan = faults.install(FaultPlan(seed=self.chaos_seed))
        self.net = ReplicatedFBNet(
            REGIONS,
            "a",
            replication_lag=0.5,
            max_lag=5.0,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.1),
            cache_reads=self.cache_reads,
            store_factory=(
                (lambda name: ShardedObjectStore(shards=4, name=name))
                if self.sharded
                else None
            ),
        )
        self.serial = 0

    def teardown(self):
        faults.uninstall()
        net = self.net
        if not net.master.db_healthy:
            others = [r for r in net.regions.values() if r is not net.master]
            if not any(region.db_healthy for region in others):
                net.recover_database(others[0].name)
            net.promote_nearest()
        for name in REGIONS:
            if name != net.master_region:
                net.recover_database(name)
        net.master.store.flush_commit_listeners()
        net.scheduler.run_for(120.0)
        digests = {name: store_digest(net.regions[name].store) for name in REGIONS}
        assert len(set(digests.values())) == 1, digests

    # -- traffic ---------------------------------------------------------

    def _write(self, region, method, args):
        """One write RPC through ``region``'s client; fails iff the write tier is down."""
        try:
            getattr(self.net.client(region), method)(args)
        except ReplicationError:
            assert not self.net._write_candidates()

    def _name(self):
        self.serial += 1
        return f"r{self.serial}"

    def _target(self, pick):
        ids = sorted(obj.id for obj in self.net.master.store.all(Region))
        return ids[pick % len(ids)]

    @rule(region=regions, count=st.integers(min_value=1, max_value=3))
    def create(self, region, count):
        name = self._name()
        specs = [("Region", {"name": f"{name}.{i}"}) for i in range(count)]
        self._write(region, "create_objects", specs)

    @precondition(lambda self: self.net.master.store.count(Region))
    @rule(region=regions, pick=picks)
    def update(self, region, pick):
        update = ("Region", self._target(pick), {"name": self._name()})
        self._write(region, "update_objects", [update])

    @precondition(lambda self: self.net.master.store.count(Region))
    @rule(region=regions, pick=picks)
    def delete(self, region, pick):
        self._write(region, "delete_objects", [("Region", self._target(pick))])

    @rule(region=regions)
    def read(self, region):
        candidates = self.net._read_candidates(region, "local")
        try:
            answer = self.net.client(region).get("Region", ["name"])
        except ReplicationError:
            assert not candidates
        else:
            # No rpc.call fault is ever armed: the first live candidate serves.
            assert answer == ReadApi(candidates[0]._store).get("Region", ("name",))

    @rule(seconds=st.sampled_from([0.1, 0.5, 1.0, 5.0]))
    def advance_clock(self, seconds):
        self.net.scheduler.run_for(seconds)

    # -- faults ----------------------------------------------------------

    @rule(region=regions, times=st.integers(min_value=1, max_value=3))
    def arm_apply_fault(self, region, times):
        self.plan.inject("replication.apply", region=region, times=times)

    @rule()
    def arm_listener_fault(self):
        self.plan.inject("store.commit_listener", times=1)

    @rule(region=regions, index=st.integers(min_value=0, max_value=1), up=st.booleans())
    def crash_or_recover_service_replica(self, region, index, up):
        replica = self.net.regions[region].read_replicas[index]
        if up:
            replica.recover()
        else:
            replica.crash()

    # -- topology --------------------------------------------------------

    @rule(region=regions)
    def disable_database(self, region):
        self.net.disable_database(region)

    @rule(region=regions)
    def recover_database(self, region):
        net = self.net
        if region == net.master_region and not net.master.db_healthy:
            with pytest.raises(ReplicationError):
                net.recover_database(region)
        else:
            net.recover_database(region)

    @rule()
    def check_health(self):
        self.net.check_health()

    @rule(fail=st.booleans())
    def promote(self, fail):
        net = self.net
        if fail:
            net.fail_master()
        healthy = [r for r in net.regions.values() if r is not net.master and r.db_healthy]
        if healthy:
            net.promote_nearest()
        else:
            with pytest.raises(ReplicationError):
                net.promote_nearest()

    @rule(region=regions)
    def rejoin(self, region):
        if region == self.net.master_region:
            with pytest.raises(ReplicationError):
                self.net.rejoin_old_master(region)
        else:
            self.net.rejoin_old_master(region)

    # -- the predicate ---------------------------------------------------

    @invariant()
    def healthy_replica_journals_are_prefixes_of_the_masters(self):
        net = self.net
        master_journal = net.master.store.journal
        for region in net.regions.values():
            if region is not net.master and region.db_healthy:
                journal = region.store.journal
                assert journal == master_journal[: len(journal)], region.name

    @invariant()
    def every_replica_serves_what_the_rule_says(self):
        assert_serving_rule(self.net)
        for region in self.net.regions.values():
            for replica in region.read_replicas:
                assert (replica.cache is not None) == self.cache_reads


@pytest.mark.parametrize("sharded", [False, True], ids=["plain", "4-shard"])
@pytest.mark.parametrize("cache_reads", [False, True], ids=["uncached", "cached"])
def test_replication_predicate_holds_over_random_histories(
    chaos_seed, cache_reads, sharded
):
    machine = type(
        "ReplicationMachine",
        (ReplicationMachine,),
        {"cache_reads": cache_reads, "sharded": sharded, "chaos_seed": chaos_seed},
    )
    run_state_machine_as_test(
        seed(chaos_seed)(machine),
        settings=settings(
            max_examples=200, stateful_step_count=50, deadline=None, database=None
        ),
    )
