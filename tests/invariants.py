"""The predicate over replicated management state, stated once.

Every replica, recovery and cache in FBNet is a function of one journal
(paper section 4.3).  Each function here says what that means for one
object and returns the ways it fails, so a test can ask after any step:
:func:`store_violations` (indexes against rows, journal against its
replay, placement against a cold walk), :func:`cache_violations` (the
inverted read-set index against ``ReadSet.matches``), and a
:class:`ReplicatedFBNet`'s :func:`prefix_violations` and
:func:`serving_violations`.  Nothing in ``src/`` calls them.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

from repro.fbnet.base import hashable, model_registry
from repro.fbnet.durability import store_digest
from repro.fbnet.replication import ReplicatedFBNet
from repro.fbnet.rpc import ReadCache
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ChangeOp, ChangeRecord, ObjectStore


def replay(records: list[ChangeRecord], name: str = "replay") -> ObjectStore:
    """A fresh plain store that applied ``records`` in order."""
    store = ObjectStore(name=name)
    for record in records:
        store.apply_record(record)
    return store


def _differ(what: str, held: set, rows: set) -> list[str]:
    out = []
    if held - rows:
        out.append(f"{what}: stale {sorted(held - rows, key=repr)}")
    if rows - held:
        out.append(f"{what}: missing {sorted(rows - held, key=repr)}")
    return out


def _index_violations(store: ObjectStore) -> list[str]:
    """The reverse-FK buckets, the unique and ``unique_together`` indexes
    and the shadow values, rebuilt from the live rows and compared both
    ways: an entry no row accounts for is stale, a row no entry holds is
    missing."""
    out: list[str] = []
    live = {
        (name, obj_id): row
        for name, rows in store._tables.items()
        for obj_id, row in rows.items()
    }
    out += _differ("shadow values", set(store._known_values), set(live))
    reverse: set[tuple] = set()
    unique: set[tuple] = set()
    together: set[tuple] = set()
    for (name, obj_id), row in live.items():
        values = row.clone_values()
        if row.id != obj_id or row._store is not store:
            out.append(f"{name} #{obj_id}: row says id {row.id}, another store")
        if store._known_values.get((name, obj_id), values) != values:
            out.append(f"{name} #{obj_id}: shadow differs from the row")
        meta = type(row)._meta
        for fk in meta.fk_fields:
            if values[fk] is not None:
                reverse.add(((name, fk), values[fk], obj_id))
        for field in meta.unique_fields:
            if values[field] is not None:
                unique.add(
                    ((meta.family_root.__name__, field), hashable(values[field]), obj_id)
                )
        for group in meta.unique_together:
            combo = tuple(hashable(values[n]) for n in group)
            if None not in combo:
                together.add(((name, group), combo, obj_id))
    for what, index, rows in (
        ("unique index", store._unique_index, unique),
        ("unique_together index", store._unique_together_index, together),
    ):
        held = {(key, value, i) for key, held in index.items() for value, i in held.items()}
        out += _differ(what, held, rows)
    held = {
        (key, target, i)
        for key, buckets in store._reverse_index.items()
        for target, ids in buckets.items()
        for i in ids
    }
    out += _differ("reverse-FK index", held, reverse)
    return out


def _journal_violations(store: ObjectStore, replayed: ObjectStore) -> list[str]:
    """Transactions contiguous and increasing, allocators ahead of the
    journal, and the journal's replay equal to the store."""
    out: list[str] = []
    journal = store._journal
    txn_ids = [txn_id for txn_id, _ in groupby(journal, attrgetter("txn_id"))]
    if any(later <= earlier for earlier, later in zip(txn_ids, txn_ids[1:])):
        out.append(f"transaction ids out of order: {txn_ids}")
    if journal and store._next_txn_id <= max(txn_ids):
        out.append(
            f"next transaction id {store._next_txn_id} reuses one of {txn_ids}"
        )
    if store._next_id < replayed._next_id:
        out.append(
            f"next object id {store._next_id} reuses a journaled id "
            f"(the journal needs {replayed._next_id})"
        )
    # An aborted create consumes an id no record witnesses.
    next_id, replayed._next_id = replayed._next_id, store._next_id
    if store_digest(replayed) != store_digest(store):
        out.append("a replay of the journal has another store_digest")
    replayed._next_id = next_id
    return out


def _placement_violations(store: ShardedObjectStore) -> list[str]:
    """``_home`` is ``_placed`` over the live rows, the shard counts add
    up, ``_placed`` is what a cold walk (no token cache) over the journal
    prefix before each CREATE places, and every cached token of a live
    row is what a cold walk over the rows now finds."""
    out: list[str] = []
    live = {obj_id: row for rows in store._tables.values() for obj_id, row in rows.items()}
    out += _differ("_home keys", set(store._home), set(live))
    moved = {i for i, home in store._home.items() if store._placed.get(i) != home}
    if moved:
        out.append(f"_home disagrees with _placed for ids {sorted(moved)}")
    live_counts = sum(shard.live for shard in store.shards)
    if live_counts != store.total_objects():
        out.append(f"shards count {live_counts} live rows of {store.total_objects()}")
    token = store.assignment.token
    stale = sorted(
        obj_id
        for obj_id, cached in store._token_cache.items()
        if obj_id in live
        and cached != token(type(live[obj_id]), live[obj_id].__dict__, store._resolve)
    )
    if stale:
        out.append(f"token cache disagrees with a cold walk for ids {stale}")
    cold = ObjectStore(name="cold")
    placed = set()
    for record in store._journal:
        if record.op is ChangeOp.CREATE:
            model = model_registry.get(record.model)
            home = store.assignment.shard_index(model, record.values, cold._resolve)
            placed.add((record.obj_id, home))
        cold.apply_record(record)
    return out + _differ("_placed, against a cold replay", set(store._placed.items()), placed)


def store_violations(store: ObjectStore) -> list[str]:
    """Every way ``store`` disagrees with its own rows and journal."""
    out = _index_violations(store)
    out += _journal_violations(store, replay(store._journal))
    if isinstance(store, ShardedObjectStore):
        out += _placement_violations(store)
    return [f"{store.name}: {violation}" for violation in out]


def cache_violations(cache: ReadCache) -> list[str]:
    """For each of the journal's last eight records, the entries the
    cache's :class:`ReadSetIndex` says it invalidates are exactly those
    whose :meth:`ReadSet.matches` says so; and the index holds the entries."""
    out: list[str] = []
    entries = cache._entries
    if set(cache._follower.index._terms) != set(entries):
        out.append(f"{cache.name}: the read-set index holds other keys than the entries")
    for record in cache.store.journal_since(max(0, cache.store.journal_position - 8)):
        want = {key for key, entry in entries.items() if entry.read_set.matches(record)}
        got = cache._follower.index.affected(record)
        if got != want:
            out.append(
                f"{cache.name}: {record.op.value} {record.model} #{record.obj_id} "
                f"invalidates {len(got)} entries, matches {len(want)}"
            )
    return out


def prefix_violations(net: ReplicatedFBNet) -> list[str]:
    """Every healthy non-master region's journal is a prefix of the
    master's: nothing skipped, doubled or foreign."""
    master = net.master.store.journal
    return [
        f"{region.name}: journal is not a prefix of the master's"
        for region in net.regions.values()
        if region is not net.master
        and region.db_healthy
        and region.store.journal != master[: region.store.journal_position]
    ]


def serving_violations(net: ReplicatedFBNet) -> list[str]:
    """Every read replica serves its own region's store and cache — the
    master's while a non-master region's database is disabled — every
    cache fronts the store its replica serves, and the write tier serves
    the master's store."""
    out: list[str] = []
    master = net.master
    for region in net.regions.values():
        serving = region if region.db_healthy or region is master else master
        for replica in region.read_replicas:
            if replica._store is not serving.store or replica.cache is not serving.cache:
                out.append(f"{replica.name} does not serve {serving.name}'s store and cache")
            if replica.cache is not None and replica.cache.store is not replica._store:
                out.append(f"{replica.name}'s cache fronts another store")
    if not master.write_replicas:
        out.append(f"master {master.name} has no write tier")
    out += [
        f"{replica.name} writes to another store than the master's"
        for replica in master.write_replicas
        if replica._store is not master.store
    ]
    return out
