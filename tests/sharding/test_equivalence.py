"""Byte-identity: the sharded store is the legacy store, at any config.

The refactor's acceptance bar (ROADMAP item 1): query results, journals,
digests, and full ``incremental_cycle`` outcomes must be byte-identical
between the single ``ObjectStore`` and ``ShardedObjectStore`` at *any*
shard count and *any* worker-pool size.  Shard placement is an internal
detail — nothing observable may depend on it.
"""

from __future__ import annotations

import os

import pytest

from repro import Robotron, obs, parallel, seed_environment
from repro.obs import flight
from repro.common.errors import ObjectDoesNotExist
from repro.design.fleet import FLEET_224, build_fleet
from repro.fbnet.durability import store_digest
from repro.fbnet.models import (
    Circuit,
    ClusterGeneration,
    Device,
    DrainState,
    PhysicalInterface,
    Pop,
    Region,
)
from repro.fbnet.query import Expr, Op
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore

pytestmark = pytest.mark.sharding


def small_build(store):
    """Seed + one POP cluster: the cheapest non-trivial object graph."""
    env = seed_environment(store)
    from repro.design.cluster import build_cluster

    build_cluster(store, "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2)
    return store


def journal_shape(store):
    return [
        (r.txn_id, r.op, r.model, r.obj_id, r.changed_fields)
        for r in store.journal
    ]


@pytest.fixture(scope="module")
def fleet_pair():
    """One plain and one sharded FLEET_224 build, shared by the module."""
    plain = ObjectStore(name="fleet-plain")
    build_fleet(plain, FLEET_224)
    count = int(os.environ.get("FBNET_SHARDS", "4"))
    sharded = ShardedObjectStore(shards=count, name="fleet-sharded")
    build_fleet(sharded, FLEET_224)
    return plain, sharded


class TestDigestEquivalence:
    def test_digest_identical_across_shard_counts(self):
        digests = {store_digest(small_build(ObjectStore()))}
        for count in (1, 2, 4):
            digests.add(
                store_digest(small_build(ShardedObjectStore(shards=count)))
            )
        assert len(digests) == 1

    def test_shard_count_one_matches_legacy_journal(self):
        plain = small_build(ObjectStore())
        solo = small_build(ShardedObjectStore(shards=1))
        assert store_digest(solo) == store_digest(plain)
        assert journal_shape(solo) == journal_shape(plain)
        assert solo.total_objects() == plain.total_objects()
        assert solo.table_sizes() == plain.table_sizes()

    def test_rolled_back_multi_shard_transaction_leaves_no_trace(self, sharded):
        """Rows live in one place, so undoing a transaction whose rows were
        labelled with several shards is the plain store's undo."""
        plain = small_build(ObjectStore())
        small_build(sharded)
        before = plain.table_sizes(), plain.journal_position
        for store in (plain, sharded):
            with pytest.raises(RuntimeError):
                with store.transaction():
                    for index in range(12):  # twelve tokens: every shard count spreads them
                        store.create(Region, name=f"region-{index:02d}")
                    for device in store.all(Device):
                        store.update(device, drain_state=DrainState.DRAINED)
                    store.delete(store.all(Circuit)[0])  # cascades to its prefixes
                    raise RuntimeError("abort")
        assert store_digest(sharded) == store_digest(plain)
        assert (sharded.table_sizes(), sharded.journal_position) == before
        assert (plain.table_sizes(), plain.journal_position) == before
        assert sharded.total_objects() == plain.total_objects()
        assert sum(sharded.shard_sizes().values()) == plain.total_objects()

    def test_fleet_build_digest_matches(self, fleet_pair):
        plain, sharded = fleet_pair
        assert store_digest(sharded) == store_digest(plain)
        assert journal_shape(sharded) == journal_shape(plain)


class TestQueryEquivalence:
    def test_all_returns_identical_rows(self, fleet_pair):
        plain, sharded = fleet_pair
        for model in (Device, PhysicalInterface, Circuit, Region):
            assert [o.id for o in sharded.all(model)] == [
                o.id for o in plain.all(model)
            ]

    def test_filter_returns_identical_rows(self, fleet_pair):
        plain, sharded = fleet_pair
        queries = [
            (Device, Expr("name", Op.STARTSWITH, "dc01")),
            (Pop, Expr("name", Op.EQUAL, "pop01")),
            (PhysicalInterface, Expr("speed_mbps", Op.GT, 0)),
        ]
        for model, query in queries:
            assert [o.id for o in sharded.filter(model, query)] == [
                o.id for o in plain.filter(model, query)
            ]

    def test_fanout_scan_identical_at_any_worker_count(self, fleet_pair):
        plain, sharded = fleet_pair
        baseline = [o.id for o in plain.all(PhysicalInterface)]
        for count in (1, 2, 4):
            with parallel.workers(count):
                assert [
                    o.id for o in sharded.all(PhysicalInterface)
                ] == baseline

    def test_queries_against_empty_shards(self):
        # A single-region build over eight shards leaves most shards
        # empty; every query shape must still come back clean.
        store = ShardedObjectStore(shards=8)
        seed_environment(
            store,
            region_names=("solo",),
            pop_count=1,
            datacenter_count=0,
            backbone_site_count=0,
        )
        sizes = store.shard_sizes()
        assert any(size == 0 for size in sizes.values())
        assert store.count(Region) == 1
        assert [p.name for p in store.all(Pop)] == ["pop01"]
        assert store.filter(Pop, Expr("name", Op.EQUAL, "pop01"))
        assert store.filter(Pop, Expr("name", Op.EQUAL, "missing")) == []
        assert store.all(Circuit) == []
        with pytest.raises(ObjectDoesNotExist):
            store.get(Device, 999_999)


class TestCycleEquivalence:
    def run_cycle(self, shards: int | None) -> tuple:
        # The flight recorder's change counter is process-global; reset it
        # so back-to-back in-process runs mint identical change ids.
        obs.reset()
        robotron = Robotron() if shards is None else Robotron(shards=shards)
        env = seed_environment(robotron.store)
        cluster = robotron.build_cluster(
            "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
        )
        robotron.boot_fleet()
        assert robotron.provision_cluster(cluster).ok
        robotron.attach_monitoring()
        pif = robotron.store.all(PhysicalInterface)[0]
        robotron.store.update(pif, description="recabled to rack 7")
        report = robotron.incremental_cycle()
        golden = {
            name: config.text
            for name, config in sorted(robotron.generator.golden.items())
        }
        return (
            store_digest(robotron.store),
            tuple(report.generation.regenerated),
            tuple(sorted(report.deploy.succeeded)),
            tuple(sorted(report.deploy.skipped)),
            tuple(sorted(report.deploy.failed)),
            tuple(d.device for d in report.discrepancies),
            report.ok,
            golden,
        )

    def test_incremental_cycle_identical_across_stores(self):
        baseline = self.run_cycle(None)
        for count in (1, 4):
            assert self.run_cycle(count) == baseline


class TestProvenanceEquivalence:
    def run_change(self, store) -> tuple:
        obs.reset()
        with flight.change_context("eight regions, every shard"):
            with store.transaction():
                for index in range(8):
                    store.create(Region, name=f"region-{index:02d}")
        mutations = [
            event.object_id
            for event in flight.recorder().events
            if event.kind == "model.mutation"
        ]
        return mutations, flight.deterministic_dump()

    def test_multi_shard_transaction_emits_events_in_journal_order(self):
        # One transaction is one commit whatever its rows' shards, so its
        # flight events come out in journal order at every shard count.
        baseline = self.run_change(ObjectStore())
        assert baseline[0] == list(range(1, 9))
        for count in (1, 4):
            assert self.run_change(ShardedObjectStore(shards=count)) == baseline
