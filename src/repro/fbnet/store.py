"""The FBNet persistent object store (paper section 4.3.1).

The paper implements FBNet on MySQL behind the Django ORM; this reproduction
provides an in-process relational store with the same observable semantics:

* one *table* per concrete model, rows keyed by an integer primary key;
* foreign-key integrity, unique and unique-together constraints;
* atomic multi-object transactions — no partial state is visible and a
  failed transaction rolls back completely (section 4.3.2);
* a change journal recording every create/update/delete, which powers both
  the replication layer (section 4.3.3) and the design-change accounting
  behind the paper's Figure 15.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from operator import attrgetter
from time import perf_counter
from typing import Any, NamedTuple, TypeVar

from repro import faults, obs
from repro.obs import flight

from repro.common.errors import (
    IntegrityError,
    ObjectDoesNotExist,
    TransactionError,
)
from repro.common.task import current
from repro.fbnet.base import Model, hashable, model_registry
from repro.fbnet.changelog import ReadSet, equality_dependencies, query_models
from repro.fbnet.fields import OnDelete
from repro.fbnet.query import Expr, Query, ensure_query, plan

__all__ = ["ChangeOp", "ChangeRecord", "ObjectStore"]

M = TypeVar("M", bound=Model)


class ChangeOp(Enum):
    """The kind of mutation a journal entry records."""

    CREATE = "create"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class ChangeRecord:
    """One committed mutation, as seen by replication and accounting."""

    txn_id: int
    op: ChangeOp
    model: str
    obj_id: int
    #: Field values after the change (for CREATE/UPDATE) or before (DELETE).
    values: dict[str, Any] = field(repr=False, default_factory=dict)
    #: Names of the fields whose values changed (UPDATE only).
    changed_fields: tuple[str, ...] = ()
    #: The flight-recorder change this mutation belongs to ("" when the
    #: write happened outside any change context — e.g. monitoring-derived
    #: state).  Replication carries the id along unchanged, so a replica's
    #: journal attributes rows to the same change as the master's.
    change_id: str = ""


@dataclass
class _UndoEntry:
    op: ChangeOp
    model: type[Model]
    obj_id: int
    old_values: dict[str, Any] | None  # None for CREATE
    #: The live instance a DELETE detached, so rollback can revive *it*
    #: (not a copy) and the caller's references stay valid.
    obj: Model | None = None


class _Slots(NamedTuple):
    """The index entries one model's rows land in (``ObjectStore._slots``)."""

    #: (fk field, target id -> ids of the rows pointing at it)
    fks: tuple[tuple[str, dict[int, set[int]]], ...]
    #: (unique field, value -> id of the row holding it, family-wide)
    uniques: tuple[tuple[str, dict[Any, int]], ...]
    #: (``unique_together`` group, value tuple -> id of the row holding it)
    togethers: tuple[tuple[tuple[str, ...], dict[tuple, int]], ...]


#: Sort key of live rows (a row in a table always has its id).
_row_id = attrgetter("id")


class ObjectStore:
    """An in-process FBNet object store.

    The store is synchronous and single-writer, matching the paper's setup
    of a single master database; concurrency across regions is modeled by
    :mod:`repro.fbnet.replication` on top of the journal this store emits.
    """

    #: How many shards rows are labelled with; ``None`` on a plain store.
    #: A store that sets it (:mod:`repro.fbnet.sharding`) also says which
    #: shard each journal record's row belongs to, and the durability layer
    #: logs both.  Rows live in ``_tables`` either way.
    shard_count: int | None = None

    def __init__(self, name: str = "fbnet"):
        self.name = name
        self._tables: dict[str, dict[int, Model]] = {}
        # (source model name, fk field) -> target id -> set of source ids
        self._reverse_index: dict[tuple[str, str], dict[int, set[int]]] = {}
        # Shadow copy of each stored object's last-committed field values,
        # used to compute changed-field sets and maintain the reverse index.
        self._known_values: dict[tuple[str, int], dict[str, Any]] = {}
        # Unique indexes: (family root, field) -> value -> object id, and
        # (model, field group) -> value tuple -> object id.  Kept in sync
        # by _index/_unindex so constraint checks stay O(1).
        self._unique_index: dict[tuple[str, str], dict[Any, int]] = {}
        self._unique_together_index: dict[tuple[str, tuple[str, ...]], dict[tuple, int]] = {}
        # model -> the entries of the three indexes above a row of that
        # model lands in, resolved on the model's first write (_slots).
        self._model_slots: dict[type[Model], _Slots] = {}
        self._next_id = 1
        # Plain int (not itertools.count) so recovery can restart it above
        # the log's tail.
        self._next_txn_id = 1
        self._journal: list[ChangeRecord] = []
        # Durability sidecar (see repro.fbnet.durability); None = volatile.
        self._durability = None
        self._commit_listeners: list[Callable[[list[ChangeRecord]], None]] = []
        # Committed batches whose listener delivery was deferred by an
        # injected ``store.commit_listener`` fault; flushed (in order) on
        # the next healthy commit or by flush_commit_listeners().
        self._listener_backlog: list[list[ChangeRecord]] = []

        # Transaction state.
        self._txn_depth = 0
        self._undo_log: list[_UndoEntry] = []
        self._pending_records: list[ChangeRecord] = []
        self._current_txn_id: int | None = None
        self._txn_started_at: float | None = None

    # ------------------------------------------------------------------
    # Read tracking (change propagation, see repro.fbnet.changelog)
    # ------------------------------------------------------------------

    @property
    def _read_trackers(self) -> list[ReadSet] | tuple[()]:
        """The active trackers: reads are recorded into every one, so
        nested computations compose.  The stack lives on the ambient task
        context — a pool task records into a frame of its own, which the
        coordinator merges into the enclosing trackers."""
        return current().trackers.get(self, ())

    @contextmanager
    def track_reads(self, read_set: ReadSet | None = None) -> Iterator[ReadSet]:
        """Record every read inside the block into ``read_set``.

        The resulting :class:`~repro.fbnet.changelog.ReadSet` can later be
        matched against journal records to decide whether the computation
        that performed the reads needs to be redone.
        """
        read_set = read_set if read_set is not None else ReadSet()
        trackers = current().trackers
        stack = trackers.setdefault(self, [])
        stack.append(read_set)
        try:
            yield read_set
        finally:
            stack.pop()
            if not stack:
                del trackers[self]

    def _note_model_read(self, model: type[Model]) -> None:
        for tracker in self._read_trackers:
            tracker.add_model(model.__name__)

    def _note_object_read(self, obj: Model) -> None:
        if obj.id is not None:
            for tracker in self._read_trackers:
                tracker.add_object(type(obj).__name__, obj.id)

    def _note_field_read(
        self, model_name: str, field_name: str, values: tuple[Any, ...]
    ) -> None:
        for tracker in self._read_trackers:
            tracker.add_field(model_name, field_name, values)

    def _note_query_read(self, model: type[Model], query: Query) -> None:
        """Record a query read: field deps when analyzable, else the queried
        model — and either way the models its dotted paths traverse.

        Which is why the filter itself runs with tracking suspended (see
        :meth:`_select`) — the FK hops it resolves through the store are
        membership tests, not semantic reads, and recording them would
        drag every examined row into the read-set.
        """
        for field_name, values in equality_dependencies(query) or ():
            self._note_field_read(model.__name__, field_name, values)
        for name in query_models(model, query):
            for tracker in self._read_trackers:
                tracker.add_model(name)

    @contextmanager
    def _suspend_tracking(self) -> Iterator[None]:
        trackers = current().trackers
        previous = trackers.pop(self, None)
        try:
            yield
        finally:
            if previous is not None:
                trackers[self] = previous

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[int]:
        """Run a block atomically; on exception everything is rolled back.

        Nested transactions join the outermost one (savepoints are not
        needed by any Robotron workflow).  Yields the transaction id.
        """
        if self._txn_depth == 0:
            self._current_txn_id = self._next_txn_id
            self._next_txn_id += 1
            self._undo_log = []
            self._pending_records = []
            self._txn_started_at = perf_counter() if obs.enabled() else None
        self._txn_depth += 1
        txn_id = self._current_txn_id
        assert txn_id is not None
        try:
            yield txn_id
        except Exception:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self._rollback()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self._commit()

    def _commit(self) -> None:
        records = self._pending_records
        self._pending_records = []
        self._undo_log = []
        self._current_txn_id = None
        if self._durability is not None and records:
            # Write-ahead: the transaction is durable before it becomes
            # visible in memory.  A crash raised here (ProcessCrash) leaves
            # in-memory state behind the WAL — recovery replays the frame.
            self._durability.log_commit(records)
        self._journal.extend(records)
        for record in records:
            if record.change_id:
                flight.record(
                    "model.mutation",
                    phase="model",
                    change_id=record.change_id,
                    model=record.model,
                    object_id=record.obj_id,
                    verdict=record.op.value,
                    detail=", ".join(record.changed_fields),
                )
        obs.counter("store.txn", store=self.name, status="commit").inc()
        if self._txn_started_at is not None:
            obs.histogram("store.txn.latency", store=self.name).observe(
                perf_counter() - self._txn_started_at
            )
            self._txn_started_at = None
        obs.histogram(
            "store.txn.rows", obs.COUNT_BUCKETS, store=self.name
        ).observe(len(records))
        if self._commit_listeners and faults.should_inject(
            "store.commit_listener", store=self.name
        ):
            # The listener hookup hiccuped (e.g. the replication shipper):
            # the commit itself is durable, but delivery is deferred until
            # the next commit — downstream sees a lag spike, not data loss.
            self._listener_backlog.append(records)
            return
        self.flush_commit_listeners()
        for listener in self._commit_listeners:
            listener(records)

    def flush_commit_listeners(self) -> None:
        """Deliver any listener batches a fault previously deferred."""
        while self._listener_backlog:
            batch = self._listener_backlog.pop(0)
            for listener in self._commit_listeners:
                listener(batch)

    def _rollback(self) -> None:
        for entry in reversed(self._undo_log):
            table = self._tables[entry.model.__name__]
            if entry.op is ChangeOp.CREATE:
                obj = table.pop(entry.obj_id, None)
                if obj is not None:
                    self._unindex(obj)
                    obj.id = None
                    obj._store = None
            elif entry.op is ChangeOp.UPDATE:
                obj = table[entry.obj_id]
                self._unindex(obj)
                assert entry.old_values is not None
                obj.__dict__.update(entry.old_values)
                self._index(obj, entry.old_values)
            else:  # DELETE
                assert entry.old_values is not None
                # Revive the very instance the delete detached; building a
                # fresh object would strand the caller's reference with
                # id=None, and a later save() on it would insert a duplicate.
                obj = entry.obj if entry.obj is not None else entry.model.__new__(entry.model)
                obj.__dict__.update(entry.old_values)
                obj.id = entry.obj_id
                obj._store = self
                table[entry.obj_id] = obj
                self._index(obj, entry.old_values)
        self._undo_log = []
        self._pending_records = []
        self._current_txn_id = None
        self._txn_started_at = None
        obs.counter("store.txn", store=self.name, status="rollback").inc()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def save(self, obj: M) -> M:
        """Insert a new object or persist updates to an existing one."""
        if obj._store is not None and obj._store is not self:
            raise IntegrityError("object belongs to a different store")
        if self._txn_depth:
            self._write(obj)
        else:
            with self.transaction():
                self._write(obj)
        return obj

    def _write(self, obj: Model) -> None:
        if obj.id is None:
            self._insert(obj)
            return
        try:
            self._update(obj)
        except Exception:
            # The caller mutated the live stored instance before
            # save(); a failed update must not leave that dirty
            # state visible — restore the last committed values.
            known = self._known_values.get((type(obj).__name__, obj.id))
            if known is not None:
                obj.__dict__.update(known)
            raise

    def create(self, model: type[M], **field_values: Any) -> M:
        """Construct and insert an object in one step."""
        obj = model(**field_values)
        return self.save(obj)

    def update(self, obj: M, **field_values: Any) -> M:
        """Assign ``field_values`` onto ``obj`` and persist them.

        Every name is checked and every value cleaned before any is
        assigned: ``obj`` may be the live stored row, which a rejected
        call must leave as it was.
        """
        fields = type(obj)._meta.fields
        cleaned = {}
        for name, value in field_values.items():
            if name not in fields:
                raise IntegrityError(
                    f"{type(obj).__name__} has no field {name!r}"
                )
            cleaned[name] = fields[name].clean(value)
        obj.__dict__.update(cleaned)
        return self.save(obj)

    def delete(self, obj: Model) -> None:
        """Delete ``obj``, honouring referrers' ``on_delete`` policies.

        ``CASCADE`` referrers are deleted recursively, ``SET_NULL``
        referrers have their relationship field cleared, and ``PROTECT``
        referrers abort the whole transaction.
        """
        if obj.id is None or obj._store is not self:
            raise ObjectDoesNotExist(f"{obj!r} is not stored here")
        if self._txn_depth:
            self._delete_inner(obj, seen=set())
        else:
            with self.transaction():
                self._delete_inner(obj, seen=set())

    def _delete_inner(self, obj: Model, seen: set[tuple[str, int]]) -> None:
        key = (type(obj).__name__, obj.id)
        if key in seen:
            return
        seen.add(key)
        assert obj.id is not None
        for related_name, (source_model, fk_name) in model_registry.reverse_relations(
            type(obj)
        ).items():
            referrers = self.referrers(obj, source_model, fk_name)
            if not referrers:
                continue
            fk = source_model._meta.fk_fields[fk_name]
            if fk.on_delete is OnDelete.PROTECT:
                raise IntegrityError(
                    f"cannot delete {obj!r}: protected by "
                    f"{len(referrers)} {source_model.__name__}.{fk_name} referrer(s)"
                )
            for referrer in referrers:
                if fk.on_delete is OnDelete.CASCADE:
                    self._delete_inner(referrer, seen)
                else:  # SET_NULL
                    referrer.__dict__[fk_name] = None
                    self._update(referrer)
        self._remove_row(obj)

    def _remove_row(self, obj: Model) -> None:
        assert obj.id is not None
        obj_id, name = obj.id, type(obj).__name__
        table = self._tables[name]
        if obj_id not in table:
            return  # already deleted within this cascade
        values = obj.clone_values()
        self._unindex(obj)
        del table[obj_id]
        self._undo_log.append(
            _UndoEntry(ChangeOp.DELETE, type(obj), obj_id, values, obj=obj)
        )
        self._record(ChangeOp.DELETE, name, obj_id, values, ())
        obj.id = None
        obj._store = None

    def _alloc_id(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        return allocated

    # One values dict per row write: it is checked, indexed, kept as the
    # row's shadow (``_known_values``), journaled and, once superseded,
    # handed to the undo log — so nothing may change it after it is built.

    def _insert(self, obj: Model) -> None:
        model = type(obj)
        values = obj.clone_values()
        self._check_fks(model, values)
        self._check_unique(model, values, exclude_id=None)
        obj.id = obj_id = self._alloc_id()
        obj._store = self
        self._tables.setdefault(model.__name__, {})[obj_id] = obj
        self._index(obj, values)
        self._undo_log.append(_UndoEntry(ChangeOp.CREATE, model, obj_id, None))
        self._record(ChangeOp.CREATE, model.__name__, obj_id, values, ())

    def _update(self, obj: Model) -> None:
        assert obj.id is not None
        model, obj_id = type(obj), obj.id
        stored = self._row(model.__name__, obj_id)
        if stored is None:
            raise ObjectDoesNotExist(
                f"{model.__name__} id={obj_id} is not in the store"
            )
        if stored is not obj:
            raise IntegrityError(
                f"stale object: {model.__name__} id={obj_id} differs from "
                "the stored instance"
            )
        values = obj.clone_values()
        self._check_fks(model, values)
        self._check_unique(model, values, exclude_id=obj_id)
        # Callers mutate the live row and then save it, so what changed is
        # the difference from the shadow the last write left.
        old_values = self._known_values[model.__name__, obj_id]
        changed = tuple(
            name for name in model._meta.field_names
            if old_values[name] != values[name]
        )
        self._unindex_values(model, obj_id, old_values)
        self._index(obj, values)
        self._undo_log.append(_UndoEntry(ChangeOp.UPDATE, model, obj_id, old_values))
        self._record(ChangeOp.UPDATE, model.__name__, obj_id, values, changed)

    # ------------------------------------------------------------------
    # Constraint checks
    # ------------------------------------------------------------------

    def _check_fks(self, model: type[Model], values: dict[str, Any]) -> None:
        for name, fk in model._meta.fk_fields.items():
            raw = values[name]
            if raw is not None and self._resolve(fk.to, raw) is None:
                raise IntegrityError(
                    f"{model.__name__}.{name}: no {fk.to.__name__} with id {raw}"
                )

    def _check_unique(
        self, model: type[Model], values: dict[str, Any], exclude_id: int | None
    ) -> None:
        _fks, uniques, togethers = self._slots(model)
        key = self._hashable
        for name, held in uniques:
            value = values[name]
            if value is None:
                continue
            holder = held.get(key(value))
            if holder is not None and holder != exclude_id:
                root = model._meta.family_root
                raise IntegrityError(
                    f"{model.__name__}.{name}={value!r} violates unique "
                    f"constraint (held by {self._resolve(root, holder)!r})"
                )
        for group, held in togethers:
            combo = tuple([key(values[n]) for n in group])
            holder = None if None in combo else held.get(combo)
            if holder is not None and holder != exclude_id:
                raise IntegrityError(
                    f"{model.__name__}{group} = {combo!r} violates "
                    "unique_together"
                )

    _hashable = staticmethod(hashable)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def _slots(self, model: type[Model]) -> _Slots:
        """Where a row of ``model`` lands in the three indexes.

        Resolved on the model's first write to this store and for good:
        which fields are indexed, and under which family root, is fixed
        by the model's declaration, and the index entries are only ever
        filled and emptied, never replaced.  Two tasks resolving at once
        get the same entries (``setdefault``) in equal tuples.
        """
        slots = self._model_slots.get(model)
        if slots is None:
            meta, name = model._meta, model.__name__
            root = meta.family_root.__name__
            slots = self._model_slots[model] = _Slots(
                tuple(
                    (fk, self._reverse_index.setdefault((name, fk), {}))
                    for fk in meta.fk_fields
                ),
                tuple(
                    (fld, self._unique_index.setdefault((root, fld), {}))
                    for fld in meta.unique_fields
                ),
                tuple(
                    (group, self._unique_together_index.setdefault((name, group), {}))
                    for group in meta.unique_together
                ),
            )
        return slots

    def _index(self, obj: Model, values: dict[str, Any]) -> None:
        """Enter ``obj`` — whose field values are ``values`` — in every
        index, and keep ``values`` as its shadow."""
        obj_id = obj.id
        assert obj_id is not None
        fks, uniques, togethers = self._slots(type(obj))
        for name, buckets in fks:
            raw = values[name]
            if raw is not None:
                bucket = buckets.get(raw)
                if bucket is None:
                    bucket = buckets[raw] = set()
                bucket.add(obj_id)
        key = self._hashable
        for name, held in uniques:
            value = values[name]
            if value is not None:
                held[key(value)] = obj_id
        for group, held in togethers:
            combo = tuple([key(values[n]) for n in group])
            if None not in combo:
                held[combo] = obj_id
        self._known_values[type(obj).__name__, obj_id] = values

    def _unindex(self, obj: Model) -> None:
        values = self._known_values.pop((type(obj).__name__, obj.id), None)
        if values is not None:
            self._unindex_values(type(obj), obj.id, values)

    def _unindex_values(
        self, model: type[Model], obj_id: int, values: dict[str, Any]
    ) -> None:
        fks, uniques, togethers = self._slots(model)
        for name, buckets in fks:
            bucket = buckets.get(values[name])
            if bucket is not None:
                bucket.discard(obj_id)
        key = self._hashable
        for name, held in uniques:
            value = key(values[name])
            if value is not None and held.get(value) == obj_id:
                del held[value]
        for group, held in togethers:
            combo = tuple([key(values[n]) for n in group])
            if held.get(combo) == obj_id:
                del held[combo]

    def referrers(
        self, obj: Model, source_model: type[Model], fk_name: str
    ) -> list[Model]:
        """Objects of ``source_model`` whose ``fk_name`` points at ``obj``."""
        assert obj.id is not None
        name = source_model.__name__
        self._note_field_read(name, fk_name, (obj.id,))
        ids = self._reverse_index.get((name, fk_name), {}).get(obj.id, ())
        return [row for i in sorted(ids) if (row := self._row(name, i)) is not None]

    def _row(self, model_name: str, obj_id: int) -> Model | None:
        """Resolve one indexed id to its live row."""
        rows = self._tables.get(model_name)
        return rows.get(obj_id) if rows else None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, model: type[M], obj_id: int) -> M:
        """Fetch one object by id (searching subclass tables too)."""
        found = self._resolve(model, obj_id)
        if found is None:
            raise ObjectDoesNotExist(f"no {model.__name__} with id {obj_id}")
        self._note_object_read(found)
        return found

    def _hop(self, model: type[M], obj_id: int) -> M:
        """``get`` for a row following its own FK (``Model.related``): a
        read like any other, but never a routing decision to count."""
        return ObjectStore.get(self, model, obj_id)

    def _resolve(self, model: type[M], obj_id: int) -> M | None:
        # Ids are store-wide, so at most one table of the family holds it.
        for concrete in model_registry.family(model):
            obj = self._row(concrete.__name__, obj_id)
            if obj is not None:
                return obj  # type: ignore[return-value]
        return None

    def _iter_rows(self, model: type[M]) -> Iterator[M]:
        """Every row of ``model`` (and subclasses), unsorted and untracked."""
        for concrete in model_registry.family(model):
            rows = self._tables.get(concrete.__name__)
            if rows:
                yield from rows.values()  # type: ignore[misc]

    def all(self, model: type[M]) -> list[M]:
        """All objects of ``model``, including subclasses, ordered by id."""
        self._note_model_read(model)
        return sorted(self._iter_rows(model), key=_row_id)

    def filter(self, model: type[M], query: Query | None = None) -> list[M]:
        """Objects of ``model`` matching ``query`` (all if ``None``)."""
        return sorted(self._select(model, query), key=_row_id)

    def count(self, model: type[M], query: Query | None = None) -> int:
        """Number of matching objects."""
        return len(self._select(model, query))

    def exists(self, model: type[M], query: Query | None = None) -> bool:
        """Whether any object matches."""
        return bool(self._select(model, query))

    def first(self, model: type[M], query: Query | None = None) -> M | None:
        """The matching object with the smallest id, if any."""
        return min(self._select(model, query), key=_row_id, default=None)

    def _select(self, model: type[M], query: Query | None) -> list[M]:
        """The rows matching ``query``, unsorted: the one read path.

        Every query verb lands here, so this is the one place that counts
        the query, records its read-set, asks :func:`repro.fbnet.query.plan`
        for index candidates, and falls back to the scan.  Candidates are
        a superset; the same predicate runs over them as over a scan —
        ``query.compile``, once per table, since rows arrive table by
        table either way — so the plan taken never changes the answer.

        The filter runs with this store's trackers taken out of the task
        context: the FK hops a predicate resolves are membership tests,
        not semantic reads.
        """
        ensure_query(query)
        name = model.__name__
        obs.counter("store.query", store=self.name, model=name).inc()
        started = perf_counter()
        trackers = current().trackers
        tracking = trackers.get(self)
        try:
            if query is None:
                if tracking:
                    self._note_model_read(model)
                return list(self._iter_rows(model))
            candidates = plan(self, model, query)
            if tracking:
                # What is recorded depends on the query and the schema,
                # never on the data or on which rows the plan touched.
                if candidates is not None and isinstance(query, Expr):
                    # An indexed lookup depends on exactly the tables it probed.
                    for probed in candidates:
                        self._note_field_read(probed, query.field, query.rvalues)
                else:
                    self._note_query_read(model, query)
                del trackers[self]  # suspended while the filter runs
            if candidates is None:
                obs.counter("store.planner.scan", store=self.name, model=name).inc()
                rows = self._iter_rows(model)
            else:
                rows = self._candidate_rows(candidates)
            return [
                row
                for concrete, table in groupby(rows, type)
                for row in filter(query.compile(concrete), table)
            ]
        finally:
            if tracking:
                trackers[self] = tracking
            obs.histogram("store.query.latency", store=self.name).observe(
                perf_counter() - started
            )

    def _candidate_rows(self, candidates: dict[str, set[int]]) -> list[Model]:
        """The live rows behind a plan's candidate ids."""
        return [
            row
            for name, ids in candidates.items()
            for obj_id in ids
            if (row := self._row(name, obj_id)) is not None
        ]

    # ------------------------------------------------------------------
    # Journal / replication hooks
    # ------------------------------------------------------------------

    def _record(
        self,
        op: ChangeOp,
        model_name: str,
        obj_id: int,
        values: dict[str, Any],
        changed: tuple[str, ...],
    ) -> None:
        assert self._current_txn_id is not None
        obs.counter("store.rows", store=self.name, op=op.value).inc()
        self._pending_records.append(
            ChangeRecord(
                txn_id=self._current_txn_id,
                op=op,
                model=model_name,
                obj_id=obj_id,
                values=values,
                changed_fields=changed,
                change_id=flight.current_change_id(),
            )
        )

    @property
    def journal(self) -> list[ChangeRecord]:
        """The committed change journal (read-only view)."""
        return list(self._journal)

    def journal_since(
        self, position: int, upto: int | None = None
    ) -> list[ChangeRecord]:
        return self._journal[position:upto]

    @property
    def journal_position(self) -> int:
        return len(self._journal)

    def add_commit_listener(self, fn: Callable[[list[ChangeRecord]], None]) -> None:
        """Register ``fn`` to receive each committed transaction's records."""
        self._commit_listeners.append(fn)

    def apply_record(self, record: ChangeRecord) -> None:
        """Apply a journal record from another store (replication receive).

        Object ids are preserved so that replicas remain id-compatible with
        the master.
        """
        model = model_registry.get(record.model)
        values, creating = record.values, record.op is ChangeOp.CREATE
        # The record's values are the row's shadow here as they are where
        # the record was written — unless the record is hand-built and
        # partial, when the shadow is completed from the row.
        whole = values.keys() == model._meta.fields.keys()
        table = self._tables.setdefault(record.model, {})
        # Strict for all three ops: a record that does not fit the rows
        # here means this store diverged from the journal's source (or the
        # log repeats a frame) — surfaced, never papered over.
        if creating:
            if record.obj_id in table:
                raise self._diverged(record, "live")
            obj = model.__new__(model)
            obj.__dict__.update(values)
            obj.id = record.obj_id
            obj._store = self
            table[record.obj_id] = obj
            self._index(obj, values if whole else obj.clone_values())
            # Keep local id allocation ahead of replicated ids so a promoted
            # replica never reuses a master-assigned id.
            self._next_id = max(self._next_id, record.obj_id + 1)
        elif record.op is ChangeOp.UPDATE:
            obj = table.get(record.obj_id)
            if obj is None:
                raise self._diverged(record, "missing")
            self._unindex(obj)
            obj.__dict__.update(values)
            self._index(obj, values if whole else obj.clone_values())
        else:  # DELETE
            obj = table.pop(record.obj_id, None)
            if obj is None:
                raise self._diverged(record, "missing")
            self._unindex(obj)
            obj.id = None
            obj._store = None
        if self._durability is not None:
            self._durability.log_applied(record)
        self._journal.append(record)

    def _diverged(self, record: ChangeRecord, state: str) -> TransactionError:
        op = record.op.value
        obs.counter("store.replication.divergence", store=self.name, op=op).inc()
        return TransactionError(
            f"replication {op} for {state} {record.model} id={record.obj_id}"
        )

    # ------------------------------------------------------------------
    # Durability (see repro.fbnet.durability)
    # ------------------------------------------------------------------

    def attach_durability(self, root: Any, *, fsync: bool = False):
        """Journal every commit to a write-ahead log under ``root``.

        If this store already has history, that journal is logged first, so
        the file always holds the whole of it.  Returns the attached
        :class:`~repro.fbnet.durability.DurabilityEngine`.
        """
        from repro.fbnet.durability import DurabilityEngine

        if self._durability is not None:
            raise TransactionError(f"store {self.name!r} already has durability")
        self._durability = DurabilityEngine(self, root, fsync=fsync)
        return self._durability

    def detach_durability(self) -> None:
        """Stop journaling; the files written so far stay recoverable."""
        if self._durability is not None:
            self._durability.close()
            self._durability = None

    @property
    def durability(self):
        """The attached durability engine, or ``None`` when volatile."""
        return self._durability

    @classmethod
    def recover(
        cls,
        root: Any,
        *,
        name: str | None = None,
        attach: bool = True,
        fsync: bool = False,
    ) -> ObjectStore:
        """Rebuild a store from the durability root a crashed one left.

        Replays the WAL (truncating a torn tail frame, refusing a damaged
        one mid-log) and returns a store whose tables, indexes, and
        journal match the crashed store at its last durable commit — a
        sharded store when the log says a sharded one wrote it.
        """
        from repro.fbnet.durability import recover_store

        return recover_store(root, name=name, attach=attach, fsync=fsync)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def table_sizes(self) -> dict[str, int]:
        """Row count per concrete model (only non-empty tables)."""
        return {name: len(rows) for name, rows in self._tables.items() if rows}

    def total_objects(self) -> int:
        return sum(map(len, self._tables.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectStore {self.name!r} objects={self.total_objects()}>"
