"""The home-shard rule: deterministic, sticky, and cross-region aware."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import seed_environment
from repro.fbnet.durability import WAL_NAME
from repro.fbnet.models import (
    BackboneSite,
    Circuit,
    Cluster,
    ClusterGeneration,
    HardwareProfile,
    LinecardModel,
    NetworkDomain,
    Pop,
    PrefixPool,
    Rack,
    RackProfile,
    Region,
    Vendor,
)
from repro.fbnet.sharding import ShardAssignment, ShardedObjectStore
from repro.design.backbone import BackboneDesignTool

pytestmark = pytest.mark.sharding


class TestShardAssignment:
    def test_region_token_is_its_name(self, sharded):
        region = sharded.create(Region, name="na-east")
        assignment = sharded.assignment
        token = assignment.token(Region, region.__dict__, sharded._home_resolve)
        assert token == "na-east"

    def test_located_object_inherits_region_token(self, sharded):
        region = sharded.create(Region, name="na-east")
        pop = sharded.create(
            Pop, name="pop01", region=region, domain=NetworkDomain.POP
        )
        assert sharded.shard_of(pop) == sharded.shard_of(region)

    def test_catalog_objects_home_on_shard_zero(self, sharded):
        pool = sharded.create(
            PrefixPool,
            name="pool-v6",
            prefix="2401:db00::/32",
            version=6,
            purpose="p2p",
        )
        assert sharded.shard_of(pool) == "s00"

    def test_assignment_is_deterministic_across_stores(self):
        for shards in (1, 4):
            keys = []
            for _ in range(2):
                store = ShardedObjectStore(shards=shards)
                seed_environment(store)
                keys.append(
                    [store.shard_of(obj) for obj in store.all(Region)]
                    + [store.shard_of(obj) for obj in store.all(Pop)]
                )
            assert keys[0] == keys[1]

    def test_single_shard_store_maps_everything_to_zero(self):
        store = ShardedObjectStore(shards=1)
        seed_environment(store)
        assert set(store._home.values()) == {0}

    def test_assignment_is_sticky_across_updates(self, sharded):
        a = sharded.create(Region, name="aa-first")
        z = sharded.create(Region, name="zz-last")
        pop = sharded.create(
            Pop, name="pop01", region=a, domain=NetworkDomain.POP
        )
        before = sharded.shard_of(pop)
        # Moving the POP to another region must not migrate its row: the
        # home is assigned once, at create.
        sharded.update(pop, region=z)
        assert sharded.shard_of(pop) == before
        assert sharded.get(Pop, pop.id) is pop

    def test_hash_spreads_regions_when_sharded_wide(self):
        assignment = ShardAssignment(64)
        indices = {
            assignment.shard_of_token(f"region-{i:02d}") for i in range(32)
        }
        # 32 tokens over 64 buckets: collisions happen, a single bucket
        # would mean the hash is broken.
        assert len(indices) > 8


class TestCrossRegionHomeRule:
    def seed_backbone(self, store):
        env = seed_environment(
            store,
            region_names=("aa-west", "zz-east"),
            pop_count=0,
            datacenter_count=0,
            backbone_site_count=2,
        )
        tool = BackboneDesignTool(store)
        routers = []
        for name in sorted(env.backbone_sites):
            site = env.backbone_sites[name]
            routers.append(tool.add_router(f"{name}-br01", site, "Router_Vendor1"))
        tool.add_circuit(routers[0].name, routers[1].name)
        return env, routers

    def test_cross_region_circuit_homes_on_smallest_region(self, sharded):
        env, routers = self.seed_backbone(sharded)
        # Sites bbs01/bbs02 round-robin over the two regions, so the two
        # routers sit in different regions and the circuit between them is
        # a genuinely cross-region object.
        site_regions = {
            r.name: r.related("site").related("region").name for r in routers
        }
        assert len(set(site_regions.values())) == 2
        expected = sharded.shards[
            sharded.assignment.shard_of_token(min(site_regions.values()))
        ].shard_key
        for circuit in sharded.all(Circuit):
            assert sharded.shard_of(circuit) == expected

    def test_replica_recomputes_identical_homes(self):
        for shards in (1, 4):
            master = ShardedObjectStore(shards=shards)
            self.seed_backbone(master)
            replica = ShardedObjectStore(shards=shards, name="replica")
            for record in master.journal:
                replica.apply_record(record)
            assert replica._home == master._home
            assert replica.shard_sizes() == master.shard_sizes()

    def test_plain_replica_of_sharded_master(self, sharded):
        """Shard placement never leaks into the journal."""
        from repro.fbnet.durability import store_digest
        from repro.fbnet.store import ObjectStore

        self.seed_backbone(sharded)
        replica = ObjectStore(name="plain-replica")
        for record in sharded.journal:
            replica.apply_record(record)
        assert store_digest(replica) == store_digest(sharded)

    def test_tokenless_fk_chain_falls_back_to_shard_zero(self, sharded):
        lcm = sharded.create(
            LinecardModel, name="LC-1x1G", port_count=1, port_speed_mbps=1_000
        )
        profile = sharded.create(
            HardwareProfile,
            name="Router_Tiny",
            vendor=Vendor.VENDOR1,
            slot_count=1,
            linecard_model=lcm,
        )
        # The profile's only FK target (the linecard SKU) has no located
        # ancestor, so the whole chain is tokenless.
        assert sharded.shard_of(lcm) == "s00"
        assert sharded.shard_of(profile) == "s00"

    def test_shard_of_unstored_object_raises(self, sharded):
        region = Region(name="never-saved")
        with pytest.raises(Exception):
            sharded.shard_of(region)

    def test_backbone_site_itself_is_region_homed(self, sharded):
        env, _ = self.seed_backbone(sharded)
        for site in sharded.all(BackboneSite):
            assert sharded.shard_of(site) == sharded.shard_of(
                site.related("region")
            )


# ---------------------------------------------------------------------------
# Placement is a function of the journal
# ---------------------------------------------------------------------------

#: Wide enough that two region tokens rarely share a shard.
WIDE = 16

INDEX = st.integers(min_value=0, max_value=7)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["pop", "cluster", "rack", "drop_rack", "drop_cluster"]), INDEX),
        st.tuples(st.sampled_from(["move_pop", "move_cluster", "rename"]), INDEX, INDEX),
    ),
    min_size=1,
    max_size=20,
)


def located_hierarchy(store):
    """Three regions, one POP, one cluster and the catalog a rack needs."""
    regions = [store.create(Region, name=f"region-{i}") for i in range(3)]
    store.create(RackProfile, name="profile", downlinks_per_rack=1)
    pop = store.create(Pop, name="pop-seed", region=regions[0], domain=NetworkDomain.POP)
    store.create(
        Cluster, name="cluster-seed", pop=pop, generation=ClusterGeneration.POP_GEN2
    )
    return store


def take_step(store, number, step):
    """Apply one drawn step; a pick is an index into the rows by id, so
    every arm that holds the same rows makes the same write."""
    kind, *picks = step

    def pick(model, which=0):
        rows = store.all(model)
        return rows[picks[which] % len(rows)] if rows else None

    if kind == "pop":
        store.create(
            Pop, name=f"pop-{number}", region=pick(Region), domain=NetworkDomain.POP
        )
    elif kind == "cluster":
        store.create(
            Cluster,
            name=f"cluster-{number}",
            pop=pick(Pop),
            generation=ClusterGeneration.POP_GEN2,
        )
    elif kind == "rack" and pick(Cluster) is not None:
        store.create(
            Rack,
            name=f"rack-{number}",
            cluster=pick(Cluster),
            rack_profile=store.all(RackProfile)[0],
        )
    elif kind == "drop_rack" and pick(Rack) is not None:
        store.delete(pick(Rack))
    elif kind == "drop_cluster" and pick(Cluster) is not None:
        store.delete(pick(Cluster))  # cascades to its racks
    elif kind == "move_pop":
        store.update(pick(Pop), region=pick(Region, 1))
    elif kind == "move_cluster" and pick(Cluster) is not None:
        store.update(pick(Cluster), pop=pick(Pop, 1))
    elif kind == "rename":
        # The pick leads the name, so a rename reorders the region tokens.
        store.update(pick(Region), name=f"{picks[1]}-renamed-{number}")


def cold_replay(journal):
    replica = ShardedObjectStore(shards=WIDE)
    for record in journal:
        replica.apply_record(record)  # no home: the walk decides
    return replica


class TestPlacementFollowsTheJournal:
    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS, crash_before=st.integers(min_value=0, max_value=19))
    # ISSUE 21's case: racks warm the cluster's token, the POP above it
    # moves, and the next rack landed by the stale token unless the
    # process had crashed (and lost the cache) in between.
    @example(steps=[("rack", 0), ("rack", 0), ("move_pop", 0, 1), ("rack", 0)], crash_before=3)
    def test_three_arms_agree_after_every_step(
        self, tmp_path_factory, steps, crash_before
    ):
        """The live store, a cold replay of its journal, and a store that
        crashed mid-sequence and carried on from its WAL place every
        object alike — and the two logs end byte-equal."""
        roots = [tmp_path_factory.mktemp(arm) for arm in ("live", "crashed")]
        live, crashed = (
            located_hierarchy(ShardedObjectStore(shards=WIDE)) for _root in roots
        )
        live.attach_durability(roots[0])
        crashed.attach_durability(roots[1])
        for number, step in enumerate(steps):
            if number == crash_before % len(steps):
                crashed.detach_durability()
                crashed = ShardedObjectStore.recover(roots[1])
            take_step(live, number, step)
            take_step(crashed, number, step)
            replayed = cold_replay(live.journal)
            assert crashed._placed == live._placed == replayed._placed
            assert crashed._home == live._home == replayed._home
            assert crashed.shard_sizes() == live.shard_sizes() == replayed.shard_sizes()
        live.detach_durability()
        crashed.detach_durability()
        assert (roots[1] / WAL_NAME).read_bytes() == (roots[0] / WAL_NAME).read_bytes()

    def test_rollback_forgets_the_tokens_it_walked(self):
        live = located_hierarchy(ShardedObjectStore(shards=WIDE))
        with pytest.raises(RuntimeError):
            with live.transaction():
                take_step(live, 0, ("move_pop", 0, 1))
                take_step(live, 1, ("rack", 0))  # walks through the moved POP
                raise RuntimeError("abort")
        take_step(live, 2, ("rack", 0))
        assert cold_replay(live.journal)._home == live._home

    def test_rollback_forgets_the_ids_it_placed(self):
        # No journal names them, so a master promoted elsewhere hands them
        # out again, and this store, rejoined, must place them afresh.
        live = located_hierarchy(ShardedObjectStore(shards=WIDE))
        with pytest.raises(RuntimeError):
            with live.transaction():
                take_step(live, 0, ("pop", 0))
                raise RuntimeError("abort")
        assert live._placed == cold_replay(live.journal)._placed
