"""The lockstep oracle: every replica, recovery and cache is one journal.

A hypothesis state machine drives a four-region :class:`ReplicatedFBNet`
through random histories and hands every write, in lockstep, to a plain
reference :class:`ObjectStore` as the same :class:`WriteApi` call; both
must land it alike or refuse it for one reason.

* *Schema:* Region ← Pop (PROTECT) ← Cluster (PROTECT) ← Rack (CASCADE,
  ``unique_together (cluster, name)``).
* *Writes,* through any region's client: chains of creates naming their
  parent by ``$ref``, renames, a Region renamed or a Pop or Cluster moved,
  deletes that PROTECT refuses or CASCADE follows, batches that abort on
  a duplicate name.
* *Stores:* ``a`` and ``c`` are 4-shard, ``b`` and ``d`` plain, so the
  master changes kind as it fails over.
* *Faults:* clock ticks and health checks, apply lag spikes, deferred
  commit notifications, databases and read replicas down and up,
  promotions and rejoins, and the master's WAL torn or cut after the
  append, then ``recover_master``.  The reference restarts with the
  master, from its own journal: the new master's prefix of it, or with
  the crashed transaction only where ``wal.append_crash`` made it durable.

After every step :func:`store_violations` finds nothing on the reference
or any region's store, nor :func:`cache_violations` on any region cache,
nor the replication predicates; the master's journal (``encode_record``)
and ``store_digest`` are the reference's; and every shape ``query.plan``
decides — ``==``/IN, unique, FK, ``unique_together`` ``And``, ``Or``,
``Not``, a dotted ``cluster.pop.region.name``, a null rvalue — answers
alike from the reference, from each store at its position (the master's
and healthy regions'), and over the wire from a read replica serving
there, through the region cache in the ``cached`` variant.  At teardown
the net heals and quiesces, and every journal is the reference's.

To add a variant, give it a region (``store_factory`` picks its store)
or a rule; the invariant already checks it.  Seeded by ``chaos_seed``.
"""

from __future__ import annotations

import shutil
import tempfile
from weakref import WeakKeyDictionary

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
from repro.common.errors import FBNetError, ProcessCrash, ReplicationError, RpcError
from repro.faults import FaultPlan, RetryPolicy
from repro.fbnet.api import ReadApi, WriteApi
from repro.fbnet.durability import encode_record, store_digest
from repro.fbnet.models import Cluster, Pop, Rack, RackProfile, Region
from repro.fbnet.query import And, Expr, Not, Op, Or
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.rpc import RpcRequest, RpcResponse
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore
from tests.durability.conftest import WAL_CRASHES
from tests.invariants import (
    cache_violations,
    prefix_violations,
    replay,
    serving_violations,
    store_violations,
)

pytestmark = pytest.mark.faults

REGIONS = ["a", "b", "c", "d"]
#: The stores (named ``fbnet-<region>``) that are sharded; the rest are plain.
SHARDED = {"fbnet-a", "fbnet-c"}
MODELS = {model.__name__: model for model in (Region, Pop, Cluster, Rack)}
#: The hierarchy, top down: each model's FK names the one before it.
TREE = list(MODELS)
#: What can happen to a region's databases and service replicas.
TOPOLOGY = (
    "replica down", "replica up", "database down", "database up", "rejoin",
    "promote", "fail and promote",
)
#: Few rack names, so a rack created or renamed under a cluster collides.
RACK_NAMES = ["rk0", "rk1", "rk2"]

regions = st.sampled_from(REGIONS)
#: A pick names one of the four newest rows of a model (0: the newest), so
#: a history keeps working on what it just made or moved; -1 names the
#: oldest — or, for a parent, none.
picks = st.integers(min_value=-1, max_value=3)
rack_names = st.sampled_from(RACK_NAMES)


def store_factory(name: str) -> ObjectStore:
    if name in SHARDED:
        return ShardedObjectStore(shards=4, name=name)
    return ObjectStore(name=name)


def read_shapes(ref: ObjectStore) -> list[tuple]:
    """``(model, fields, query)`` per shape ``query.plan`` decides, valued
    from ``ref``'s rows (a miss where a table is empty)."""

    def column(model, attr, miss):
        return [getattr(row, attr) for row in ref.all(model)] or [miss]

    names, pops = column(Region, "name", "zz"), column(Pop, "name", "zz")
    region_ids, pop_ids = column(Region, "id", 0), column(Pop, "id", 0)
    racks = ref.all(Rack)
    cluster, rack = (racks[-1].__dict__["cluster"], racks[-1].name) if racks else (0, "zz")
    return [
        ("Region", ["name", "pops.name"], Expr("name", Op.EQUAL, [names[0], names[-1], "zz"])),
        ("Pop", ["name", "region.name"], Expr("name", Op.EQUAL, pops[-1])),
        ("Cluster", ["name", "pop"], Expr("pop", Op.EQUAL, pop_ids[:2])),
        ("Rack", ["name", "cluster.name"],
         And(Expr("cluster", Op.EQUAL, cluster), Expr("name", Op.EQUAL, rack))),
        ("Pop", ["name"], Or(Expr("region", Op.EQUAL, region_ids[-1]), Expr("name", Op.EQUAL, pops[0]))),
        ("Region", ["name"], Not(Expr("name", Op.EQUAL, names[0]))),
        ("Rack", ["name", "cluster.pop.region.name"],
         Expr("cluster.pop.region.name", Op.EQUAL, names[-1])),
        ("Cluster", ["name"], Expr("pop", Op.EQUAL, None)),
    ]


def over_the_wire(replica, method: str, args: dict):
    wire = RpcRequest(service="read", method=method, args=args).to_wire()
    return RpcResponse.from_wire(replica.handle(wire)).result()


class ReplicationMachine(RuleBasedStateMachine):
    cache_reads = False
    chaos_seed = 1337
    #: Where each history's WAL roots go (the system's temp dir if unset).
    tmp = None

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
            store_factory=store_factory,
        )
        self.roots = tempfile.mkdtemp(dir=self.tmp)
        self._attach_wal()
        self.reference = ObjectStore(name="reference")
        #: What the oracle last checked each store and read service at.
        self.checked, self.answered = WeakKeyDictionary(), WeakKeyDictionary()
        self.serial = 0
        # Every history starts from one branch of the hierarchy, so its
        # first steps can already move, rename and delete.
        self._write("a", "create_objects", [
            ("RackProfile", {"name": "rp", "downlinks_per_rack": 1}),
            ("Region", {"name": "r0"}),
            ("Pop", {"name": "p0", "region": ("$ref", 1), "domain": "pop"}),
            ("Cluster", {"name": "c0", "pop": ("$ref", 2), "generation": "pop-gen2"}),
            ("Rack", {"name": "rk0", "cluster": ("$ref", 3), "rack_profile": ("$ref", 0)}),
        ])
        self.profile = self.reference.all(RackProfile)[0].id

    def teardown(self):
        faults.uninstall()
        net = self.net
        try:
            if not net.master.db_healthy:
                others = [r for r in net.regions.values() if r is not net.master]
                if not any(region.db_healthy for region in others):
                    net.recover_database(others[0].name)
                self._promote()
            for name in REGIONS:
                if name != net.master_region:
                    net.recover_database(name)
            net.master.store.flush_commit_listeners()
            net.scheduler.run_for(120.0)
            stores = [self.reference, *(region.store for region in net.regions.values())]
            found = [v for store in stores for v in store_violations(store)]
            assert not found, "\n".join(found)
            journals = {store.name: list(map(encode_record, store.journal)) for store in stores}
            assert all(journal == journals["reference"] for journal in journals.values())
        finally:
            for region in net.regions.values():
                region.store.detach_durability()
            shutil.rmtree(self.roots, ignore_errors=True)

    # -- the reference follows the master's restarts -----------------------

    def _attach_wal(self):
        self.wal_root = tempfile.mkdtemp(dir=self.roots)
        self.net.attach_master_durability(self.wal_root)

    def _restart_reference(self, length: int):
        """The reference restarts as the master did: from its journal's
        first ``length`` records.  It takes the master's allocators, which
        no journal holds (aborted transactions consume ids);
        :func:`store_violations` holds them above the journal."""
        master = self.net.master.store
        self.reference = replay(self.reference.journal[:length], "reference")
        self.reference._next_id = master._next_id
        self.reference._next_txn_id = master._next_txn_id

    def _promote(self):
        old = self.net.master.store
        self.net.promote_nearest()
        old.detach_durability()
        self._restart_reference(self.net.master.store.journal_position)
        self._attach_wal()

    # -- traffic ---------------------------------------------------------

    def _write(self, region, method, args):
        """One write RPC through ``region``'s client and the same call on
        the reference: both land, alike, or both refuse it for one reason;
        it fails outright iff the write tier is down."""
        client = self.net.client(region)
        if not self.net._write_candidates():
            with pytest.raises(ReplicationError):
                getattr(client, method)(args)
            return
        try:
            got = ("ok", getattr(client, method)(args))
        except RpcError as exc:
            got = ("refused", str(exc).split(":")[0])
        try:
            want = ("ok", getattr(WriteApi(self.reference), method)(args))
        except FBNetError as exc:
            want = ("refused", type(exc).__name__)
        assert got == want

    def _name(self):
        self.serial += 1
        return f"r{self.serial}"

    def _pick(self, model, pick):
        """The id of the row ``pick`` names (``None`` in an empty table)."""
        rows = self.reference.all(model)
        return rows[-1 - pick % len(rows)].id if rows else None

    @rule(region=regions, top=st.sampled_from(TREE), pick=picks,
          depth=st.integers(1, 3), rack=rack_names)
    def create_tree(self, region, top, pick, depth, rack):
        """A chain down from ``top`` — a Region, a Pop, a Cluster, a Rack —
        each naming the row above it by ``$ref``, the first the picked one."""
        name, level = self._name(), TREE.index(top)
        parent = self._pick(MODELS[TREE[level - 1]], pick) if level and pick >= 0 else None
        specs = []
        for model in TREE[level:level + depth]:
            values = {
                "Region": {"name": name},
                "Pop": {"name": f"p{name}", "region": parent, "domain": "pop"},
                "Cluster": {"name": f"c{name}", "pop": parent, "generation": "pop-gen2"},
                "Rack": {"name": rack, "cluster": parent, "rack_profile": self.profile},
            }[model]
            specs.append((model, values))
            parent = ("$ref", len(specs) - 1)
        self._write(region, "create_objects", specs)

    @rule(region=regions, model=st.sampled_from(["Pop", "Rack"]), pick=picks, rack=rack_names)
    def rename(self, region, model, pick, rack):
        target = self._pick(MODELS[model], pick)
        if target is not None:
            name = rack if model == "Rack" else f"p{self._name()}"
            self._write(region, "update_objects", [(model, target, {"name": name})])

    @rule(region=regions, model=st.sampled_from(TREE[:3]), pick=picks, parent=picks)
    def move(self, region, model, pick, parent):
        """What a region token is read through moves: a Region is renamed,
        a Pop moves to another Region, a Cluster to another Pop."""
        child = self._pick(MODELS[model], pick)
        if child is None:
            return
        if model == "Region":
            change = {"name": f"m{self._name()}"}
        else:
            above = TREE[TREE.index(model) - 1]
            change = {above.lower(): self._pick(MODELS[above], parent) if parent >= 0 else None}
        self._write(region, "update_objects", [(model, child, change)])

    @rule(region=regions, model=st.sampled_from(sorted(MODELS)), pick=picks)
    def delete(self, region, model, pick):
        """PROTECT refuses a Region with Pops and a Pop with Clusters; a
        Cluster's Racks follow it (CASCADE)."""
        target = self._pick(MODELS[model], pick)
        if target is not None:
            self._write(region, "delete_objects", [(model, target)])

    @rule(region=regions, pick=picks, on=st.sampled_from(["Region", "Rack"]))
    def abort_batch(self, region, pick, on):
        """A batch that aborts on its last create, a duplicate of its
        first: a Region's name, or — where there is a cluster to hold it —
        a Rack's ``(cluster, name)``.  A Rack rides along either way."""
        cluster = self._pick(Cluster, pick)
        name = self._name()
        specs = [("Region", {"name": name})]
        if cluster is not None:
            specs.append(("Rack", {"name": name, "cluster": cluster, "rack_profile": self.profile}))
        self._write(region, "create_objects", specs + [specs[-1 if on == "Rack" else 0]])

    @rule(region=regions, consistency=st.sampled_from(["local", "read-after-write"]))
    def read(self, region, consistency):
        candidates = self.net._read_candidates(region, consistency)
        try:
            answer = self.net.client(region).get("Region", ["name"], consistency=consistency)
        except ReplicationError:
            assert not candidates
        else:
            # No rpc.call fault is ever armed: the first live candidate serves.
            assert answer == ReadApi(candidates[0]._store).get("Region", ("name",))

    @rule(seconds=st.sampled_from([0.1, 0.5, 1.0, 5.0]), check=st.booleans())
    def advance_clock(self, seconds, check):
        """Time passes; the health checker may run after it."""
        self.net.scheduler.run_for(seconds)
        if check:
            self.net.check_health()

    # -- faults ----------------------------------------------------------

    @rule(region=regions, times=st.integers(min_value=1, max_value=3), listener=st.booleans())
    def arm_fault(self, region, times, listener):
        """A lag spike on ``region``'s applies, or a deferred notification."""
        if listener:
            self.plan.inject("store.commit_listener", times=1)
        else:
            self.plan.inject("replication.apply", region=region, times=times)

    @precondition(lambda self: self.net._write_candidates())
    @rule(region=regions, point=st.sampled_from(WAL_CRASHES))
    def crash_master(self, region, point):
        """The master dies at a WAL crash point and comes back from its
        log: the transaction survives iff its frame was whole."""
        net = self.net
        before = net.master.store.journal_position
        self.plan.inject(point, store=net.master.store.name, times=1)
        specs = [("Region", {"name": self._name()})]
        with pytest.raises(ProcessCrash):
            net.client(region).create_objects(specs)
        survived = net.recover_master(self.wal_root).journal_position - before
        assert survived == (point == "wal.append_crash")
        if survived:
            WriteApi(self.reference).create_objects(specs)
        self._restart_reference(self.reference.journal_position)

    # -- topology --------------------------------------------------------

    @rule(event=st.sampled_from(TOPOLOGY), region=regions)
    def change_topology(self, event, region):
        """One failover-path event; a refusal is an answer the net must
        give (a failed master is replaced, never recovered in place)."""
        net = self.net
        replicas = net.regions[region].read_replicas
        if event == "replica down":
            live = [replica for replica in replicas if replica.healthy]
            if live:
                live[0].crash()
        elif event == "replica up":
            for replica in replicas:
                replica.recover()
        elif event == "database down":
            net.disable_database(region)
        elif event in ("database up", "rejoin"):
            revive = net.recover_database if event == "database up" else net.rejoin_old_master
            if region == net.master_region and (event == "rejoin" or not net.master.db_healthy):
                with pytest.raises(ReplicationError):
                    revive(region)
            else:
                revive(region)
        else:
            if event == "fail and promote":
                net.fail_master()
            if any(r is not net.master and r.db_healthy for r in net.regions.values()):
                self._promote()
            else:
                with pytest.raises(ReplicationError):
                    net.promote_nearest()

    # -- the oracle ------------------------------------------------------

    @staticmethod
    def _unseen(seen, key, store, *more) -> bool:
        """Whether ``key`` is unchecked with ``store`` as it is (a mark
        every transaction and applied record moves); it is checked now."""
        mark = (store.journal_position, store._next_id, store._next_txn_id, *more)
        if seen.get(key) == mark:
            return False
        seen[key] = mark
        return True

    @invariant()
    def lockstep(self):
        net, ref = self.net, self.reference
        stores = [ref, *(region.store for region in net.regions.values())]
        found = [
            v for store in stores if self._unseen(self.checked, store, store)
            for v in store_violations(store)
        ]
        caches = [region.cache for region in net.regions.values() if region.cache is not None]
        found += [
            v for cache in caches
            # Within one store state, entries are only ever added.
            if self._unseen(self.checked, cache, cache.store, len(cache))
            for v in cache_violations(cache)
        ]
        found += prefix_violations(net) + serving_violations(net)
        assert not found, "\n".join(found)
        for region in net.regions.values():
            assert (region.cache is not None) == self.cache_reads
        master = net.master.store
        assert list(map(encode_record, master.journal)) == list(map(encode_record, ref.journal))
        assert store_digest(master) == store_digest(ref)

        # Who answers at the reference's position: the master's store and
        # every healthy region's (a prefix of it), directly, and a live read
        # replica over the wire per store and cache it serves — each once
        # per state it is in.
        position = ref.journal_position
        doors = {}
        for region in net.regions.values():
            if (region.db_healthy or region is net.master) and region.store.journal_position == position:
                doors[region.store, None] = None
            for replica in region.read_replicas:
                if replica.healthy and replica._store.journal_position == position:
                    doors.setdefault((replica._store, replica.cache), replica)
        shapes = want = None
        for (store, cache), replica in doors.items():
            door = cache if cache is not None else replica or store
            if not self._unseen(self.answered, door, store, position):
                continue
            if want is None:
                shapes = read_shapes(ref)
                want = [ReadApi(ref).get(*shape) for shape in shapes]
            if replica is None:
                assert [ReadApi(store).get(*shape) for shape in shapes] == want, store.name
                continue
            specs = [{"model": m, "fields": f, "query": q.to_wire()} for m, f, q in shapes]
            assert over_the_wire(replica, "multi_get", {"specs": specs}) == want, replica.name
            count = {"model": "Rack", "query": specs[-2]["query"]}
            assert over_the_wire(replica, "count", count) == len(want[-2]), replica.name


@pytest.mark.parametrize("cache_reads", [False, True], ids=["uncached", "cached"])
def test_replication_predicate_holds_over_random_histories(
    chaos_seed, cache_reads, tmp_path
):
    machine = type(
        "ReplicationMachine",
        (ReplicationMachine,),
        {"cache_reads": cache_reads, "chaos_seed": chaos_seed, "tmp": tmp_path},
    )
    run_state_machine_as_test(
        seed(chaos_seed)(machine),
        settings=settings(
            max_examples=80, stateful_step_count=40, deadline=None, database=None
        ),
    )
