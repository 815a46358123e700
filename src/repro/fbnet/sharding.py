"""Region placement labels over the FBNet store (PR 9's extension).

The paper's FBNet is *not* sharded: section 4.3 runs one MySQL master
with a read replica per region.  This module is this reproduction's own
experiment in labelling every object with a home shard by region, and
nothing else — rows live where a plain store keeps them:

* :class:`ShardAssignment` — the deterministic home-shard rule.  An
  object's *region token* is the lexicographically smallest region name
  reachable through its foreign keys (so a cross-region circuit homes on
  the smaller of its two endpoint regions, and both sides of the
  replication pair compute the same answer from the same journal).
  Catalog objects with no located ancestor (hardware profiles, prefix
  pools) home on shard 0.  The token is hashed, not range-mapped, so
  adding regions spreads load without reassigning existing ones.
* :class:`Shard` — one label: a key, a name and a live-object count.
* :class:`ShardedObjectStore` — an
  :class:`~repro.fbnet.store.ObjectStore` that also keeps the placement
  map (object id -> shard) and counts which reads one shard could have
  served.  Tables, ids, transactions, undo log, journal, indexes,
  listeners and durability are the base class's, so results are
  identical at any shard count and any worker count.

Placement is a function of the journal: an object is placed when its
CREATE is first indexed, from the state the journal prefix before it
describes, and never moves.  The WAL carries each record's home beside
it (see :mod:`repro.fbnet.durability`) so that recovery need not repeat
the FK walk; what it carries is what a cold replay would compute.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any, Iterator, TypeVar

from repro import obs
from repro.common.errors import ObjectDoesNotExist
from repro.fbnet.base import Model, model_registry
from repro.fbnet.fields import ForeignKey
from repro.fbnet.query import Query
from repro.fbnet.store import ChangeOp, ChangeRecord, ObjectStore

__all__ = [
    "Shard",
    "ShardAssignment",
    "ShardedDurability",
    "ShardedObjectStore",
]

M = TypeVar("M", bound=Model)

#: FK chains in the model graph are at most ~6 hops (interface → linecard
#: → device → cluster → site → region); the cap only guards pathological
#: cycles.
_TOKEN_DEPTH_LIMIT = 16

_MISSING = object()


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
        #: model -> its foreign keys as ``(name, field)``, sorted by name.
        self._fks: dict[type[Model], tuple[tuple[str, ForeignKey], ...]] = {}
        #: region token -> shard index: the hash runs once per region.
        self._shard_by_token: dict[str | None, int] = {}

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
        fks = self._fks.get(model)
        if fks is None:
            fks = self._fks[model] = tuple(sorted(model._meta.fk_fields.items()))
        tokens: list[str] = []
        for fk_name, fk in fks:
            raw = values.get(fk_name)
            if not isinstance(raw, int):
                continue
            token = cache.get(raw, _MISSING) if cache is not None else _MISSING
            if token is _MISSING:
                target = resolver(fk.to, raw)
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
        shard = self._shard_by_token.get(token)
        if shard is None:
            if self.shard_count == 1 or token is None:
                shard = 0
            else:
                digest = sha256(token.encode("utf-8")).digest()
                shard = int.from_bytes(digest[:8], "big") % self.shard_count
            self._shard_by_token[token] = shard
        return shard

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


class Shard:
    """One label of a :class:`ShardedObjectStore`'s placement map: a key,
    a name and a count.  It holds no rows."""

    def __init__(self, router_name: str, index: int):
        self.shard_index = index
        self.shard_key = f"s{index:02d}"
        self.name = f"{router_name}/{self.shard_key}"
        #: Live rows placed here, kept by the store as it indexes and
        #: unindexes them, so the per-commit gauges need no walk.
        self.live = 0

    def total_objects(self) -> int:
        return self.live


class ShardedDurability:
    """Uninstantiated stub: nothing in ``src/`` calls it.  A sharded store
    logs through the plain ``DurabilityEngine``; the three names stay only
    because ``benchmarks/ledger/layers.py`` resolves them in this class body,
    until the next ``benchmark`` PR unpins them."""

    def log_order(self, txn_id: int, shard_sequence: list[int]) -> None: ...
    def snapshot(self) -> None: ...
    def close(self) -> None: ...


class ShardedObjectStore(ObjectStore):
    """An :class:`ObjectStore` whose rows are labelled with a home shard.

    Drop-in compatible with the single store: the same tables, the same
    transaction ids, the same journal in the same order, the same flight
    events, the same WAL but for ``shards``/``homes``, and query results
    identical byte-for-byte at any shard count and any worker count.
    """

    def __init__(self, shards: int = 4, name: str = "fbnet"):
        super().__init__(name=name)
        self.assignment = ShardAssignment(shards)
        self.shards = [Shard(name, index) for index in range(shards)]
        #: object id -> index of the shard it was placed on.  Placement is
        #: for good (a journaled id is never reused), so the entry outlives
        #: the row: an undone delete returns the row to the shard it left,
        #: and the WAL can name the home of every journal record.
        self._placed: dict[int, int] = {}
        #: ``_placed`` restricted to live rows.
        self._home: dict[int, int] = {}
        #: object id -> region token: only an accelerator for the placement
        #: walk, so it must never change an answer.  An entry is derived
        #: *through* the object's ancestors, so the whole cache is emptied
        #: whenever any ancestry moves (``_ancestry_moved``, ``_rollback``).
        self._token_cache: dict[int, str | None] = {}

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Placement: the one thing this class decides
    # ------------------------------------------------------------------

    #: The placement walk's FK resolver (it records no read).
    _home_resolve = ObjectStore._resolve

    def _homes(self, records: list[ChangeRecord]) -> list[int]:
        """The shard each record's row lives (or lived) on, for the WAL."""
        return [self._placed[record.obj_id] for record in records]

    def _index(self, obj: Model, values: dict[str, Any]) -> None:
        super()._index(obj, values)
        obj_id = obj.id
        if obj_id not in self._home:
            home = self._placed.get(obj_id)
            if home is None:  # first indexed: placed now, once and for good
                home = self._placed[obj_id] = self.assignment.shard_index(
                    type(obj), values, self._home_resolve, self._token_cache
                )
            self._home[obj_id] = home
            self.shards[home].live += 1

    def _unindex(self, obj: Model) -> None:
        super()._unindex(obj)
        home = self._home.pop(obj.id, None)
        if home is not None:
            self.shards[home].live -= 1

    def _record(
        self, op: ChangeOp, model_name: str, obj_id: int, values: dict[str, Any],
        changed: tuple[str, ...],
    ) -> None:
        super()._record(op, model_name, obj_id, values, changed)
        if changed:  # an UPDATE: nothing points at a row just made or removed
            self._ancestry_moved(model_name, changed)

    def _ancestry_moved(self, model_name: str, changed: tuple[str, ...]) -> None:
        """Forget every token if this UPDATE renamed a ``Region`` or
        re-parented a row (the two things ``token()`` reads)."""
        fks = model_registry.get(model_name)._meta.fk_fields
        if not fks.keys().isdisjoint(changed) or (
            model_name == "Region" and "name" in changed
        ):
            self._token_cache.clear()

    def _rollback(self) -> None:
        created = [e.obj_id for e in self._undo_log if e.op is ChangeOp.CREATE]
        super()._rollback()
        self._token_cache.clear()  # whatever it walked through is undone
        # No journal will name these ids, so a master promoted elsewhere
        # may hand them out again: this store must place them afresh.
        for obj_id in created:
            self._placed.pop(obj_id, None)

    def shard_of(self, obj: Model) -> str:
        """The shard key (``"s00"``…) ``obj`` is placed on."""
        if obj.id is None or obj.id not in self._home:
            raise ObjectDoesNotExist(f"{obj!r} is not stored here")
        return self.shards[self._home[obj.id]].shard_key

    def _commit(self) -> None:
        touched = sorted(set(self._homes(self._pending_records)))
        super()._commit()
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

    # ------------------------------------------------------------------
    # Reads: counters only
    # ------------------------------------------------------------------
    #
    # Planning is the base class's: every verb goes through
    # ``ObjectStore._select``.  What this class adds is the counters that
    # say whether one shard could have served a read (``get``,
    # ``_candidate_rows``) or it took all of them (``_iter_rows``).

    def get(self, model: type[M], obj_id: int) -> M:
        found = super().get(model, obj_id)
        obs.counter("store.planner.single_shard", store=self.name).inc()
        return found

    def _iter_rows(self, model: type[M]) -> Iterator[M]:
        """A scan reads rows of every shard: a fan-out, counted per shard."""
        if len(self.shards) > 1:
            for shard in self.shards:
                obs.counter(
                    "store.planner.fanout", store=self.name, shard=shard.shard_key
                ).inc()
        return super()._iter_rows(model)

    def _candidate_rows(self, candidates: dict[str, set[int]]) -> list[Model]:
        """Index-served rows; counted when they all share one home."""
        rows = super()._candidate_rows(candidates)
        if len({self._home[row.id] for row in rows}) <= 1:
            obs.counter("store.planner.single_shard", store=self.name).inc()
        return rows

    # ------------------------------------------------------------------
    # Pure inheritance, spelled out: ``benchmarks/ledger/layers.py``
    # resolves each of these names in this class body, so what wraps
    # ``ShardedObjectStore.save`` sees sharded traffic only.
    # ------------------------------------------------------------------

    def all(self, model: type[M]) -> list[M]:
        return super().all(model)

    def filter(self, model: type[M], query: Query | None = None) -> list[M]:
        return super().filter(model, query)

    def count(self, model: type[M], query: Query | None = None) -> int:
        return super().count(model, query)

    def save(self, obj: M) -> M:
        return super().save(obj)

    def delete(self, obj: Model) -> None:
        return super().delete(obj)

    def apply_record(self, record: ChangeRecord, home: int | None = None) -> None:
        """``home`` is recovery's: where the WAL says the record's row lives."""
        if home is not None:
            self._placed.setdefault(record.obj_id, home)
        if record.changed_fields:
            self._ancestry_moved(record.model, record.changed_fields)
        return super().apply_record(record)

    def transaction(self):
        return super().transaction()

    def attach_durability(self, root: Any, *, fsync: bool = False):
        return super().attach_durability(root, fsync=fsync)

    def detach_durability(self) -> None:
        return super().detach_durability()

    @classmethod
    def recover(
        cls,
        root: Any,
        *,
        name: str | None = None,
        attach: bool = True,
        fsync: bool = False,
    ) -> ObjectStore:
        return super().recover(root, name=name, attach=attach, fsync=fsync)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def shard_sizes(self) -> dict[str, int]:
        """Object count per shard key — the balance view."""
        return {shard.shard_key: shard.total_objects() for shard in self.shards}
