"""Region-sharded FBNet store (ROADMAP item 1; paper sections 4.3.1/4.3.3).

The paper's FBNet holds hundreds of thousands of objects; one in-process
table set stops being a credible stand-in at that scale.  This module
partitions the store by *region*:

* :class:`ShardAssignment` — the deterministic home-shard rule.  An
  object's *region token* is the lexicographically smallest region name
  reachable through its foreign keys (so a cross-region circuit homes on
  the smaller of its two endpoint regions, and both sides of the
  replication pair compute the same answer from the same journal).
  Catalog objects with no located ancestor (hardware profiles, prefix
  pools) home on shard 0.  The token is hashed, not range-mapped, so
  adding regions spreads load without reassigning existing ones.
* :class:`_ShardStore` — one partition.  It owns its tables, change
  journal, and WAL root, but shares the router's unique/reverse indexes
  (global constraints need a global view) and joins the router's
  transaction whenever it is written.
* :class:`ShardedObjectStore` — the router.  It keeps the public
  :class:`~repro.fbnet.store.ObjectStore` API byte-compatible: global
  transaction ids, a global journal in exact write order, and query
  results merged in shard-key order then sorted by id — identical at any
  shard count and any worker count.

Consistency model (after the partitioned-consistency reference,
arXiv:1609.06678): each shard is an independently durable journal; a
router transaction becomes durable as a set of per-shard WAL frames
sharing one transaction id.  A crash between shard flushes leaves a
*per-shard durable prefix* — every shard recovers to its own last
durable commit, and cross-shard atomicity is restored by replaying the
shared journal, not by a distributed commit protocol.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from hashlib import sha256
from itertools import chain
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, TypeVar

from repro import faults, obs
from repro.common.errors import (
    DurabilityError,
    IntegrityError,
    ObjectDoesNotExist,
    TransactionError,
)
from repro.fbnet.base import Model, model_registry
from repro.fbnet.query import Query
from repro.fbnet.store import ChangeOp, ChangeRecord, ObjectStore

__all__ = [
    "MANIFEST_NAME",
    "ORDER_LOG_NAME",
    "SHARDS_ENV",
    "ShardAssignment",
    "ShardedDurability",
    "ShardedObjectStore",
]

M = TypeVar("M", bound=Model)

#: Environment variable read when ``ShardedObjectStore(shards=None)``.
SHARDS_ENV = "FBNET_SHARDS"

#: Default partition count when neither argument nor environment says.
DEFAULT_SHARDS = 4

#: Marker file a sharded durability root carries next to its shard dirs.
MANIFEST_NAME = "shards.json"
#: Append-only commit-interleave metadata next to the shard roots: one
#: JSON line per commit, ``{"txn": id, "shards": [indices in write
#: order]}``.  Recovery uses it to reconstruct the global journal's exact
#: cross-shard interleave; a torn tail only degrades that transaction to
#: shard-order merging (same state, approximate provenance).
ORDER_LOG_NAME = "order.log"

#: FK chains in the model graph are at most ~6 hops (interface → linecard
#: → device → cluster → site → region); the cap only guards pathological
#: cycles.
_TOKEN_DEPTH_LIMIT = 16

_MISSING = object()


def shard_count_from_env() -> int:
    """The shard count :data:`SHARDS_ENV` requests (default 4)."""
    raw = os.environ.get(SHARDS_ENV, "").strip()
    if not raw:
        return DEFAULT_SHARDS
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{SHARDS_ENV}={raw!r} is not an integer") from None
    if count < 1:
        raise ValueError(f"{SHARDS_ENV} must be >= 1, not {count}")
    return count


class ShardAssignment:
    """The deterministic home-shard rule.

    ``token()`` walks an object's FK graph to the set of reachable
    :class:`Region` names and takes the smallest; ``shard_index()`` hashes
    that token onto a shard.  The walk reads raw FK ids from a field-value
    mapping (a live ``__dict__`` on the master, ``ChangeRecord.values`` on
    a replica), so both sides of replication agree from the same journal
    prefix.  Assignment is *sticky*: it runs once at create time and the
    object never migrates, even if its ancestry later moves.
    """

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ValueError(f"shard count must be >= 1, not {shard_count}")
        self.shard_count = shard_count

    def token(
        self,
        model: type[Model],
        values: dict[str, Any],
        resolver,
        cache: dict[int, str | None] | None = None,
        _depth: int = 0,
    ) -> str | None:
        """The region token of an object, or ``None`` for catalog objects."""
        if model.__name__ == "Region":
            name = values.get("name")
            return str(name) if name is not None else None
        if _depth >= _TOKEN_DEPTH_LIMIT:
            return None
        tokens: list[str] = []
        for fk_name in sorted(model._meta.fk_fields):
            raw = values.get(fk_name)
            if not isinstance(raw, int):
                continue
            token = cache.get(raw, _MISSING) if cache is not None else _MISSING
            if token is _MISSING:
                target = resolver(model._meta.fk_fields[fk_name].to, raw)
                if target is None:
                    continue
                token = self.token(
                    type(target), target.__dict__, resolver, cache, _depth + 1
                )
                if cache is not None:
                    cache[raw] = token
            if token is not None:
                tokens.append(token)
        return min(tokens) if tokens else None

    def shard_of_token(self, token: str | None) -> int:
        """Hash a region token onto a shard (tokenless objects → shard 0)."""
        if self.shard_count == 1 or token is None:
            return 0
        digest = sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.shard_count

    def shard_index(
        self,
        model: type[Model],
        values: dict[str, Any],
        resolver,
        cache: dict[int, str | None] | None = None,
    ) -> int:
        if self.shard_count == 1:
            return 0
        return self.shard_of_token(self.token(model, values, resolver, cache))


class _ShardStore(ObjectStore):
    """One partition of a :class:`ShardedObjectStore`.

    Owns its ``_tables``, journal, and durability root; shares the
    router's unique/reverse indexes and known-values shadow by reference
    so constraint checks and ``referrers()`` stay global.  Every write
    joins the router's transaction, so a partition never commits alone.
    """

    def __init__(self, router: ShardedObjectStore, index: int):
        super().__init__(name=f"{router.name}/s{index:02d}")
        self._router = router
        self._tracked_as = router  # read tracking lives on the router
        self.shard_index = index
        self.shard_key = f"s{index:02d}"
        # Global indexes, shared by reference with the router (and thus
        # with every sibling shard).
        self._reverse_index = router._reverse_index
        self._unique_index = router._unique_index
        self._unique_together_index = router._unique_together_index
        self._known_values = router._known_values

    # -- id allocation & resolution ------------------------------------

    def _alloc_id(self) -> int:
        # One global sequence: ids say nothing about placement, and the
        # sharded store stays id-compatible with a single store.
        allocated = self._router._alloc_id()
        self._next_id = self._router._next_id
        return allocated

    def _resolve(self, model: type[M], obj_id: int) -> M | None:
        found = super()._resolve(model, obj_id)
        if found is not None:
            return found
        return self._router._home_resolve(model, obj_id)

    def _row(self, model_name: str, obj_id: int) -> Model | None:
        obj = self._tables.get(model_name, {}).get(obj_id)
        if obj is not None:
            return obj
        return self._router._row(model_name, obj_id)

    # -- home map + token cache upkeep ---------------------------------

    def _index(self, obj: Model) -> None:
        super()._index(obj)
        assert obj.id is not None
        self._router._home[obj.id] = self.shard_index
        self._router._token_cache.pop(obj.id, None)

    def _unindex(self, obj: Model) -> None:
        super()._unindex(obj)
        if obj.id is not None:
            self._router._home.pop(obj.id, None)
            self._router._token_cache.pop(obj.id, None)

    # -- transactions join the router ----------------------------------

    @contextmanager
    def _implicit_txn(self) -> Iterator[None]:
        router = self._router
        if router._txn_depth > 0:
            router._join_txn(self)
            yield
        else:
            with router.transaction():
                router._join_txn(self)
                yield

    def _record(
        self,
        op: ChangeOp,
        obj: Model,
        obj_id: int,
        values: dict[str, Any],
        changed: tuple[str, ...],
    ) -> None:
        super()._record(op, obj, obj_id, values, changed)
        # The router's journal preserves the *global* write order across
        # shards; each shard's own journal keeps only its rows.
        self._router._pending_records.append(self._pending_records[-1])
        self._router._pending_shards.append(self.shard_index)

    def _owning_store(self, obj: Model) -> ObjectStore:
        owner = obj._store
        if owner is None or owner is self:
            return self
        # A cascade crossing a shard boundary: the referrer's partition
        # must be inside the transaction before it takes writes.
        self._router._join_txn(owner)
        return owner


class ShardedDurability:
    """The per-shard durability engines behind one sharded store.

    Besides fanning snapshot/close to the shard engines, it appends the
    commit order log: data lives only in the shard WALs, this file holds
    nothing but each transaction's cross-shard record interleave.
    """

    def __init__(
        self,
        store: ShardedObjectStore,
        engines: list[Any],
        order_path: Any | None = None,
        fsync: bool = False,
    ):
        self.store = store
        self.engines = list(engines)
        self._fsync = fsync
        self._order_file = (
            open(order_path, "a", encoding="utf-8")
            if order_path is not None
            else None
        )

    def log_order(self, txn_id: int, shard_sequence: list[int]) -> None:
        if self._order_file is None:
            return
        line = json.dumps(
            {"txn": txn_id, "shards": list(shard_sequence)},
            separators=(",", ":"),
        )
        self._order_file.write(line + "\n")
        self._order_file.flush()
        if self._fsync:
            os.fsync(self._order_file.fileno())

    @property
    def position(self) -> int:
        return sum(engine.position for engine in self.engines)

    def snapshot(self) -> list[Any]:
        return [engine.snapshot() for engine in self.engines]

    def close(self) -> None:
        for engine in self.engines:
            engine.close()
        if self._order_file is not None:
            self._order_file.close()
            self._order_file = None


class ShardedObjectStore(ObjectStore):
    """An :class:`ObjectStore` partitioned by region.

    Drop-in compatible with the single store: global transaction ids, a
    global journal in exact write order, and query results identical
    byte-for-byte at any shard count and any worker count.  The router
    itself holds no rows — ``self._tables`` stays empty — but it owns the
    id/txn sequences, the shared indexes, the read trackers, and the
    commit listeners.
    """

    def __init__(self, shards: int | None = None, name: str = "fbnet"):
        super().__init__(name=name)
        count = shard_count_from_env() if shards is None else int(shards)
        if count < 1:
            raise ValueError(f"shard count must be >= 1, not {count}")
        self.assignment = ShardAssignment(count)
        #: object id -> index of the shard holding its row.
        self._home: dict[int, int] = {}
        #: object id -> region token, invalidated whenever the object's
        #: row is (re)indexed; evolution is journal-order-driven, so the
        #: master, every replica, and recovery all see the same cache.
        self._token_cache: dict[int, str | None] = {}
        self.shards: list[_ShardStore] = [
            _ShardStore(self, index) for index in range(count)
        ]
        # Router-level transaction state: which shards have joined, and
        # the stack that commits/rolls back their nested transactions.
        self._txn_stack: ExitStack | None = None
        self._txn_shards: set[int] = set()
        #: Shard index per pending record, in global write order — the
        #: commit's order-log entry.
        self._pending_shards: list[int] = []

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _assign_shard(self, model: type[Model], values: dict[str, Any]) -> int:
        # The token walk resolves FK targets through the store; those are
        # placement lookups, not semantic reads.
        with self._suspend_tracking():
            return self.assignment.shard_index(
                model, values, self._home_resolve, self._token_cache
            )

    def shard_of(self, obj: Model) -> str:
        """The shard key (``"s00"``…) holding ``obj``."""
        if obj.id is None or obj.id not in self._home:
            raise ObjectDoesNotExist(f"{obj!r} is not stored here")
        return self.shards[self._home[obj.id]].shard_key

    def _home_resolve(self, model: type[M], obj_id: int) -> M | None:
        index = self._home.get(obj_id)
        if index is None:
            return None
        return ObjectStore._resolve(self.shards[index], model, obj_id)

    def _resolve(self, model: type[M], obj_id: int) -> M | None:
        return self._home_resolve(model, obj_id)

    def _row(self, model_name: str, obj_id: int) -> Model | None:
        index = self._home.get(obj_id)
        if index is None:
            return None
        return self.shards[index]._tables.get(model_name, {}).get(obj_id)

    # ------------------------------------------------------------------
    # Transactions: one global id, N joined shards
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[int]:
        if self._txn_depth == 0:
            self._current_txn_id = self._next_txn_id
            self._next_txn_id += 1
            self._pending_records = []
            self._pending_shards = []
            self._txn_shards = set()
            self._txn_stack = ExitStack()
            self._txn_started_at = perf_counter() if obs.enabled() else None
        self._txn_depth += 1
        txn_id = self._current_txn_id
        assert txn_id is not None
        try:
            yield txn_id
        except Exception:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self._abort_all()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self._commit_all()

    def _join_txn(self, shard: _ShardStore) -> None:
        """Pull ``shard`` into the open router transaction (idempotent)."""
        if self._txn_depth == 0 or self._txn_stack is None:
            raise TransactionError("shard write outside a router transaction")
        if shard.shard_index in self._txn_shards:
            return
        self._txn_shards.add(shard.shard_index)
        # Force the shard's nested transaction to carry the global id.
        assert self._current_txn_id is not None
        shard._next_txn_id = self._current_txn_id
        self._txn_stack.enter_context(shard.transaction())

    def _commit_all(self) -> None:
        stack = self._txn_stack
        records = self._pending_records
        sequence = self._pending_shards
        touched = sorted(self._txn_shards)
        self._txn_stack = None
        self._txn_shards = set()
        self._pending_records = []
        self._pending_shards = []
        self._current_txn_id = None
        if stack is not None:
            # Commits every joined shard (their WAL appends happen here).
            # A ProcessCrash mid-way leaves earlier shards durable and
            # later ones not: the per-shard durable-prefix model — each
            # partition recovers to its own last durable commit.
            stack.close()
        self._journal.extend(records)
        if records and self._durability is not None:
            self._durability.log_order(records[0].txn_id, sequence)
        obs.counter("store.txn", store=self.name, status="commit").inc()
        if self._txn_started_at is not None:
            obs.histogram("store.txn.latency", store=self.name).observe(
                perf_counter() - self._txn_started_at
            )
            self._txn_started_at = None
        obs.histogram(
            "store.txn.rows", obs.COUNT_BUCKETS, store=self.name
        ).observe(len(records))
        for shard in self.shards:
            obs.gauge(
                "store.shard.objects", store=self.name, shard=shard.shard_key
            ).set(shard.total_objects())
        for index in touched:
            obs.counter(
                "store.shard.txns",
                store=self.name,
                shard=self.shards[index].shard_key,
            ).inc()
        if self._commit_listeners and faults.should_inject(
            "store.commit_listener", store=self.name
        ):
            self._listener_backlog.append(records)
            return
        self.flush_commit_listeners()
        for listener in self._commit_listeners:
            listener(records)

    def _abort_all(self) -> None:
        stack = self._txn_stack
        self._txn_stack = None
        self._txn_shards = set()
        self._pending_records = []
        self._pending_shards = []
        self._current_txn_id = None
        self._txn_started_at = None
        if stack is not None:
            # Propagate the live exception into each shard's transaction
            # contextmanager so they roll back; a plain close() would
            # *commit* them.
            stack.__exit__(*sys.exc_info())
        obs.counter("store.txn", store=self.name, status="rollback").inc()

    # ------------------------------------------------------------------
    # Writes route to the home shard
    # ------------------------------------------------------------------

    def save(self, obj: M) -> M:
        if obj.id is None:
            if obj._store is not None:
                raise IntegrityError("object belongs to a different store")
            shard = self.shards[self._assign_shard(type(obj), obj.__dict__)]
            return shard.save(obj)
        return self._owner_of(obj).save(obj)

    def delete(self, obj: Model) -> None:
        if obj.id is None:
            raise ObjectDoesNotExist(f"{obj!r} is not stored here")
        self._owner_of(obj).delete(obj)

    def _owner_of(self, obj: Model) -> _ShardStore:
        owner = obj._store
        if isinstance(owner, _ShardStore) and owner._router is self:
            return owner
        if owner is None:
            raise ObjectDoesNotExist(f"{obj!r} is not stored here")
        raise IntegrityError("object belongs to a different store")

    # ------------------------------------------------------------------
    # Replication receive
    # ------------------------------------------------------------------

    def apply_record(self, record: ChangeRecord) -> None:
        if record.op is ChangeOp.CREATE:
            # Recompute placement from the record's values: the replica
            # has applied the same journal prefix, so the FK walk sees
            # the same ancestry the master's did.
            model = model_registry.get(record.model)
            with self._suspend_tracking():
                index = self.assignment.shard_index(
                    model, record.values, self._home_resolve, self._token_cache
                )
        else:
            found = self._home.get(record.obj_id)
            if found is None:
                obs.counter(
                    "store.replication.divergence",
                    store=self.name,
                    op=record.op.value,
                ).inc()
                raise TransactionError(
                    f"replication {record.op.value} for missing "
                    f"{record.model} id={record.obj_id}"
                )
            index = found
        self.shards[index].apply_record(record)
        self._journal.append(record)
        if self._durability is not None and not self._recovering:
            self._durability.log_order(record.txn_id, [index])
        if record.op is ChangeOp.CREATE:
            self._next_id = max(self._next_id, record.obj_id + 1)

    # ------------------------------------------------------------------
    # Reads: routing only
    # ------------------------------------------------------------------
    #
    # Planning is the base class's: every verb goes through
    # ``ObjectStore._select``, whose index probes read the global indexes
    # this router shares with its shards.  What the router adds is where
    # rows live — ``_row`` (one id, its home shard), ``_iter_rows`` (every
    # shard) and ``_candidate_rows`` — and the counters that say which of
    # the two a read took.  ``all``/``filter``/``count`` only defer: they
    # stay defined here so the router's read surface is its own (what
    # wraps or patches ``ShardedObjectStore.filter`` sees sharded reads
    # only), while ``exists``/``first`` reach the same hooks inherited.

    def get(self, model: type[M], obj_id: int) -> M:
        found = super().get(model, obj_id)
        obs.counter("store.planner.single_shard", store=self.name).inc()
        return found

    def all(self, model: type[M]) -> list[M]:
        return super().all(model)

    def filter(self, model: type[M], query: Query | None = None) -> list[M]:
        return super().filter(model, query)

    def count(self, model: type[M], query: Query | None = None) -> int:
        return super().count(model, query)

    def _iter_rows(self, model: type[M]) -> Iterator[M]:
        """Every shard's rows, in shard order: a fan-out, counted per shard."""
        if len(self.shards) > 1:
            for shard in self.shards:
                obs.counter(
                    "store.planner.fanout", store=self.name, shard=shard.shard_key
                ).inc()
        return chain.from_iterable(
            ObjectStore._iter_rows(shard, model) for shard in self.shards
        )

    def _candidate_rows(self, candidates: dict[str, set[int]]) -> list[Model]:
        """Index-served rows; counted when one shard held all of them."""
        rows = super()._candidate_rows(candidates)
        if len({self._home[row.id] for row in rows}) <= 1:
            obs.counter("store.planner.single_shard", store=self.name).inc()
        return rows

    # ------------------------------------------------------------------
    # Durability: a manifest plus one WAL root per shard
    # ------------------------------------------------------------------

    def attach_durability(
        self,
        root: Any,
        *,
        snapshot_every: int | None = None,
        fsync: bool = False,
    ) -> ShardedDurability:
        if self._durability is not None:
            raise TransactionError(f"store {self.name!r} already has durability")
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.is_file():
            manifest = json.loads(manifest_path.read_text())
            if int(manifest.get("shard_count", -1)) != len(self.shards):
                raise DurabilityError(
                    f"{manifest_path} was written by a "
                    f"{manifest.get('shard_count')}-shard store; this store "
                    f"has {len(self.shards)}"
                )
        else:
            payload = {
                "kind": "fbnet-shards",
                "version": 1,
                "store": self.name,
                "shard_count": len(self.shards),
                "shards": [shard.shard_key for shard in self.shards],
            }
            tmp = manifest_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            tmp.replace(manifest_path)
        engines = [
            shard.attach_durability(
                root / f"shard-{shard.shard_index:02d}",
                snapshot_every=snapshot_every,
                fsync=fsync,
            )
            for shard in self.shards
        ]
        self._durability = ShardedDurability(
            self, engines, order_path=root / ORDER_LOG_NAME, fsync=fsync
        )
        return self._durability

    def detach_durability(self) -> None:
        self._durability = None
        for shard in self.shards:
            shard.detach_durability()

    @classmethod
    def recover(
        cls,
        root: Any,
        *,
        name: str | None = None,
        attach: bool = True,
        snapshot_every: int | None = None,
        fsync: bool = False,
    ) -> ShardedObjectStore:
        """Rebuild a sharded store: every partition recovers independently.

        Each shard replays its own snapshot + WAL tail (a torn tail in
        one shard truncates only that shard's last commit).  The global
        journal is re-merged from the shard journals by transaction id,
        with each transaction's cross-shard interleave reconstructed
        from the order log; a transaction with no intact order entry
        (torn order tail, partially durable commit) merges in shard
        order instead — same state, approximate provenance.
        """
        from repro.fbnet.durability import recover_store

        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise DurabilityError(f"{root} is not a sharded durability root")
        manifest = json.loads(manifest_path.read_text())
        count = int(manifest["shard_count"])
        store = cls(shards=count, name=name or manifest.get("store") or "fbnet")
        engines = []
        for shard in store.shards:
            recover_store(
                root / f"shard-{shard.shard_index:02d}",
                name=shard.name,
                attach=attach,
                snapshot_every=snapshot_every,
                fsync=fsync,
                into=shard,
            )
            if shard._durability is not None:
                engines.append(shard._durability)
        store._journal = _merge_journals(
            [shard._journal for shard in store.shards],
            _read_order_log(root / ORDER_LOG_NAME),
        )
        store._next_id = max(
            [store._next_id] + [shard._next_id for shard in store.shards]
        )
        store._next_txn_id = max(
            [store._next_txn_id] + [shard._next_txn_id for shard in store.shards]
        )
        if attach and engines:
            store._durability = ShardedDurability(
                store, engines, order_path=root / ORDER_LOG_NAME, fsync=fsync
            )
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def table_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for shard in self.shards:
            for model_name, rows in shard._tables.items():
                if rows:
                    sizes[model_name] = sizes.get(model_name, 0) + len(rows)
        return sizes

    def total_objects(self) -> int:
        return sum(shard.total_objects() for shard in self.shards)

    def shard_sizes(self) -> dict[str, int]:
        """Object count per shard key — the balance view."""
        return {shard.shard_key: shard.total_objects() for shard in self.shards}

    def _digest_tables(self) -> dict[str, dict[int, Model]]:
        merged: dict[str, dict[int, Model]] = {}
        for shard in self.shards:
            for model_name, rows in shard._tables.items():
                if rows:
                    merged.setdefault(model_name, {}).update(rows)
        return merged


def _read_order_log(path: Path) -> dict[int, list[int]]:
    """Transaction id -> shard index per record, in global write order.

    A torn final line (crash mid-append) ends the read: that commit —
    and only that commit — falls back to shard-order merging.
    """
    order: dict[int, list[int]] = {}
    if not path.is_file():
        return order
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            entry = json.loads(line)
            order.setdefault(int(entry["txn"]), []).extend(
                int(index) for index in entry["shards"]
            )
        except (ValueError, KeyError, TypeError):
            break
    return order


def _merge_journals(
    journals: list[list[ChangeRecord]],
    order: dict[int, list[int]] | None = None,
) -> list[ChangeRecord]:
    """Re-merge per-shard journals into the global write order.

    Transactions sort by id.  Within one, an order-log entry whose shard
    multiset matches what the WALs actually delivered reconstructs the
    original cross-shard interleave exactly; otherwise (no entry, torn
    entry, or a partially durable commit) the records merge in shard
    order — identical state, approximate provenance.
    """
    per_txn: dict[int, dict[int, list[ChangeRecord]]] = {}
    for shard_index, journal in enumerate(journals):
        for record in journal:
            per_txn.setdefault(record.txn_id, {}).setdefault(
                shard_index, []
            ).append(record)
    merged: list[ChangeRecord] = []
    for txn_id in sorted(per_txn):
        shards = per_txn[txn_id]
        sequence = (order or {}).get(txn_id)
        delivered = Counter(
            {index: len(records) for index, records in shards.items()}
        )
        if sequence is not None and Counter(sequence) == delivered:
            cursors = dict.fromkeys(shards, 0)
            for index in sequence:
                merged.append(shards[index][cursors[index]])
                cursors[index] += 1
        else:
            for index in sorted(shards):
                merged.extend(shards[index])
    return merged
