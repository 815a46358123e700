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
from time import perf_counter
from typing import Any, TypeVar

from repro import faults, obs
from repro.obs import flight

from repro.common.errors import (
    IntegrityError,
    ObjectDoesNotExist,
    TransactionError,
)
from repro.common.task import current
from repro.fbnet.base import Model, model_registry
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


class ObjectStore:
    """An in-process FBNet object store.

    The store is synchronous and single-writer, matching the paper's setup
    of a single master database; concurrency across regions is modeled by
    :mod:`repro.fbnet.replication` on top of the journal this store emits.
    """

    #: How many shards rows are spread over; ``None`` on a plain store.
    #: A store that sets it (:mod:`repro.fbnet.sharding`) also says where
    #: each journal record's row lives, and the durability layer logs both.
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
        self._next_id = 1
        # Plain int (not itertools.count) so snapshots can persist it and
        # recovery can restore it.
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
        """Record a query read: field deps when analyzable, else models.

        The unanalyzable fallback covers every model the query's paths
        traverse, which is why ``query.matches`` itself runs under
        :meth:`_suspend_tracking` — the FK hops it resolves through the
        store are membership tests, not semantic reads, and recording
        them would drag every examined row into the read-set.
        """
        if not self._read_trackers:
            return
        deps = equality_dependencies(query)
        if deps is None:
            for name in query_models(model, query):
                for tracker in self._read_trackers:
                    tracker.add_model(name)
            return
        for field_name, values in deps:
            self._note_field_read(model.__name__, field_name, values)

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
            table = self._table(entry.model.__name__, entry.obj_id)
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
                self._index(obj)
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
                self._index(obj)
        self._undo_log = []
        self._pending_records = []
        self._current_txn_id = None
        self._txn_started_at = None
        obs.counter("store.txn", store=self.name, status="rollback").inc()

    def _in_txn(self) -> bool:
        return self._txn_depth > 0

    @contextmanager
    def _implicit_txn(self) -> Iterator[None]:
        if self._in_txn():
            yield
        else:
            with self.transaction():
                yield

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def save(self, obj: M) -> M:
        """Insert a new object or persist updates to an existing one."""
        if obj._store is not None and obj._store is not self:
            raise IntegrityError("object belongs to a different store")
        with self._implicit_txn():
            if obj.id is None:
                self._insert(obj)
            else:
                try:
                    self._update(obj)
                except Exception:
                    # The caller mutated the live stored instance before
                    # save(); a failed update must not leave that dirty
                    # state visible — restore the last committed values.
                    known = self._last_known_values(obj)
                    if known is not None:
                        obj.__dict__.update(known)
                    raise
        return obj

    def create(self, model: type[M], **field_values: Any) -> M:
        """Construct and insert an object in one step."""
        obj = model(**field_values)
        return self.save(obj)

    def update(self, obj: M, **field_values: Any) -> M:
        """Assign ``field_values`` onto ``obj`` and persist them."""
        for name, value in field_values.items():
            if name not in type(obj)._meta.fields:
                raise IntegrityError(
                    f"{type(obj).__name__} has no field {name!r}"
                )
            setattr(obj, name, value)
        return self.save(obj)

    def delete(self, obj: Model) -> None:
        """Delete ``obj``, honouring referrers' ``on_delete`` policies.

        ``CASCADE`` referrers are deleted recursively, ``SET_NULL``
        referrers have their relationship field cleared, and ``PROTECT``
        referrers abort the whole transaction.
        """
        if obj.id is None or obj._store is not self:
            raise ObjectDoesNotExist(f"{obj!r} is not stored here")
        with self._implicit_txn():
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
        table = self._table(type(obj).__name__, obj.id)
        if obj.id not in table:
            return  # already deleted within this cascade
        old_values = dict(obj.__dict__)
        old_values.pop("_store", None)
        old_id = obj.id
        self._unindex(obj)
        del table[old_id]
        self._undo_log.append(
            _UndoEntry(ChangeOp.DELETE, type(obj), old_id, old_values, obj=obj)
        )
        self._record(ChangeOp.DELETE, obj, old_id, obj.clone_values(), ())
        obj.id = None
        obj._store = None

    def _alloc_id(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def _insert(self, obj: Model) -> None:
        self._check_fks(obj)
        self._check_unique(obj, exclude_id=None)
        obj.id = self._alloc_id()
        obj._store = self
        self._table(type(obj).__name__, obj.id, obj.__dict__)[obj.id] = obj
        self._index(obj)
        self._undo_log.append(_UndoEntry(ChangeOp.CREATE, type(obj), obj.id, None))
        self._record(ChangeOp.CREATE, obj, obj.id, obj.clone_values(), ())

    def _update(self, obj: Model) -> None:
        assert obj.id is not None
        stored = self._row(type(obj).__name__, obj.id)
        if stored is None:
            raise ObjectDoesNotExist(
                f"{type(obj).__name__} id={obj.id} is not in the store"
            )
        if stored is not obj:
            raise IntegrityError(
                f"stale object: {type(obj).__name__} id={obj.id} differs from "
                "the stored instance"
            )
        self._check_fks(obj)
        self._check_unique(obj, exclude_id=obj.id)
        # Reconstruct the pre-change values from the last journal state is
        # not possible (we mutate in place), so journal undo snapshots the
        # *current* dict before the caller's changes were applied -- callers
        # mutate fields first, so we diff against the index instead.
        old_values = self._last_known_values(obj)
        changed = tuple(
            name
            for name in type(obj)._meta.fields
            if old_values is not None and old_values.get(name) != obj.__dict__.get(name)
        )
        self._unindex_values(obj, old_values)
        self._index(obj)
        undo_values = dict(old_values) if old_values is not None else dict(obj.__dict__)
        undo_values.pop("_store", None)
        self._undo_log.append(
            _UndoEntry(ChangeOp.UPDATE, type(obj), obj.id, undo_values)
        )
        self._record(ChangeOp.UPDATE, obj, obj.id, obj.clone_values(), changed)
        self._known_values[(type(obj).__name__, obj.id)] = {
            name: obj.__dict__.get(name) for name in type(obj)._meta.fields
        }

    # -- value shadow (for computing changed fields + index maintenance) ----

    def _last_known_values(self, obj: Model) -> dict[str, Any] | None:
        assert obj.id is not None
        return self._known_values.get((type(obj).__name__, obj.id))

    # ------------------------------------------------------------------
    # Constraint checks
    # ------------------------------------------------------------------

    def _check_fks(self, obj: Model) -> None:
        for name, fk in type(obj)._meta.fk_fields.items():
            raw = obj.__dict__.get(name)
            if raw is None:
                continue
            if self._resolve(fk.to, raw) is None:
                raise IntegrityError(
                    f"{type(obj).__name__}.{name}: no {fk.to.__name__} with id {raw}"
                )

    def _check_unique(self, obj: Model, exclude_id: int | None) -> None:
        meta = type(obj)._meta
        root = self._family_root(type(obj))
        for name, fld in meta.fields.items():
            if not fld.unique:
                continue
            value = obj.__dict__.get(name)
            if value is None:
                continue
            holder = self._unique_index.get((root, name), {}).get(self._hashable(value))
            if holder is not None and holder != exclude_id:
                raise IntegrityError(
                    f"{type(obj).__name__}.{name}={value!r} violates unique "
                    f"constraint (held by {self._describe_holder(root, holder)})"
                )
        for group in meta.unique_together:
            values = tuple(self._hashable(obj.__dict__.get(n)) for n in group)
            if any(v is None for v in values):
                continue
            holder = self._unique_together_index.get(
                (type(obj).__name__, group), {}
            ).get(values)
            if holder is not None and holder != exclude_id:
                raise IntegrityError(
                    f"{type(obj).__name__}{group} = {values!r} violates "
                    "unique_together"
                )

    def _describe_holder(self, root: str, obj_id: int) -> str:
        for concrete in model_registry.all():
            if self._family_root(concrete) == root:
                obj = self._row(concrete.__name__, obj_id)
                if obj is not None:
                    return repr(obj)
        return f"id={obj_id}"

    @staticmethod
    def _hashable(value: Any) -> Any:
        if isinstance(value, Enum):
            return value.value
        if isinstance(value, (list, dict, set)):
            return repr(value)
        return value

    @staticmethod
    def _family_root(model: type[Model]) -> str:
        """The topmost abstract ancestor's name (unique-constraint scope).

        Unique fields are enforced across the inheritance family so that
        e.g. two device subclasses cannot share a device name.
        """
        root = model
        for klass in model.__mro__[1:]:
            meta = getattr(klass, "_meta", None)
            if meta is not None and getattr(meta, "abstract", False) and klass is not Model:
                root = klass
        return root.__name__

    # ------------------------------------------------------------------
    # Reverse index
    # ------------------------------------------------------------------

    def _index(self, obj: Model) -> None:
        assert obj.id is not None
        meta = type(obj)._meta
        for name, fk in meta.fk_fields.items():
            raw = obj.__dict__.get(name)
            if raw is None:
                continue
            key = (type(obj).__name__, name)
            self._reverse_index.setdefault(key, {}).setdefault(raw, set()).add(obj.id)
        root = self._family_root(type(obj))
        for name, fld in meta.fields.items():
            if not fld.unique:
                continue
            value = obj.__dict__.get(name)
            if value is not None:
                self._unique_index.setdefault((root, name), {})[
                    self._hashable(value)
                ] = obj.id
        for group in meta.unique_together:
            values = tuple(self._hashable(obj.__dict__.get(n)) for n in group)
            if not any(v is None for v in values):
                self._unique_together_index.setdefault(
                    (type(obj).__name__, group), {}
                )[values] = obj.id
        self._known_values[(type(obj).__name__, obj.id)] = {
            name: obj.__dict__.get(name) for name in meta.fields
        }

    def _unindex(self, obj: Model) -> None:
        self._unindex_values(obj, self._last_known_values(obj))
        if obj.id is not None:
            self._known_values.pop((type(obj).__name__, obj.id), None)

    def _unindex_values(self, obj: Model, values: dict[str, Any] | None) -> None:
        if values is None or obj.id is None:
            return
        meta = type(obj)._meta
        for name in meta.fk_fields:
            raw = values.get(name)
            if raw is None:
                continue
            bucket = self._reverse_index.get((type(obj).__name__, name), {}).get(raw)
            if bucket is not None:
                bucket.discard(obj.id)
        root = self._family_root(type(obj))
        for name, fld in meta.fields.items():
            if not fld.unique:
                continue
            value = values.get(name)
            if value is None:
                continue
            bucket = self._unique_index.get((root, name))
            if bucket is not None and bucket.get(self._hashable(value)) == obj.id:
                del bucket[self._hashable(value)]
        for group in meta.unique_together:
            tuple_key = tuple(self._hashable(values.get(n)) for n in group)
            bucket = self._unique_together_index.get((type(obj).__name__, group))
            if bucket is not None and bucket.get(tuple_key) == obj.id:
                del bucket[tuple_key]

    def referrers(
        self, obj: Model, source_model: type[Model], fk_name: str
    ) -> list[Model]:
        """Objects of ``source_model`` whose ``fk_name`` points at ``obj``."""
        assert obj.id is not None
        self._note_field_read(source_model.__name__, fk_name, (obj.id,))
        ids = self._reverse_index.get((source_model.__name__, fk_name), {}).get(
            obj.id, set()
        )
        rows = (self._row(source_model.__name__, i) for i in ids)
        return sorted(
            (row for row in rows if row is not None), key=lambda o: o.id or 0
        )

    def _table(
        self,
        model_name: str,
        obj_id: int,
        new: dict[str, Any] | None = None,
        home: int | None = None,
    ) -> dict[int, Model]:
        """The table that holds row ``(model_name, obj_id)``.

        The one question about where rows live, and the only one a
        partitioned store (:mod:`repro.fbnet.sharding`) answers
        differently; journal, undo log, transactions and the WAL never
        ask.  ``new`` is passed when the id is new to the store (insert,
        replicated CREATE) and carries the row's field values, from which
        a partitioned store decides, once and for good, where the id
        lives; ``home`` is that decision as a WAL recorded it.
        """
        return self._tables.setdefault(model_name, {})

    def _row(self, model_name: str, obj_id: int) -> Model | None:
        """Resolve one indexed id to its live row."""
        return self._table(model_name, obj_id).get(obj_id)

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
        obj = self._table(model.__name__, obj_id).get(obj_id)
        if obj is not None:
            return obj  # type: ignore[return-value]
        for concrete in model_registry.all():
            if concrete is not model and issubclass(concrete, model):
                obj = self._table(concrete.__name__, obj_id).get(obj_id)
                if obj is not None:
                    return obj  # type: ignore[return-value]
        return None

    def _iter_rows(self, model: type[M]) -> Iterator[M]:
        """Every row of ``model`` (and subclasses), unsorted and untracked."""
        for tables in self._partitions():
            for concrete in model_registry.all():
                if issubclass(concrete, model):
                    yield from tables.get(concrete.__name__, {}).values()  # type: ignore[misc]

    def all(self, model: type[M]) -> list[M]:
        """All objects of ``model``, including subclasses, ordered by id."""
        self._note_model_read(model)
        return sorted(self._iter_rows(model), key=lambda o: o.id or 0)

    def filter(self, model: type[M], query: Query | None = None) -> list[M]:
        """Objects of ``model`` matching ``query`` (all if ``None``)."""
        return sorted(self._select(model, query), key=lambda o: o.id or 0)

    def count(self, model: type[M], query: Query | None = None) -> int:
        """Number of matching objects."""
        return len(self._select(model, query))

    def exists(self, model: type[M], query: Query | None = None) -> bool:
        """Whether any object matches."""
        return bool(self._select(model, query))

    def first(self, model: type[M], query: Query | None = None) -> M | None:
        """The matching object with the smallest id, if any."""
        return min(self._select(model, query), key=lambda o: o.id or 0, default=None)

    def _select(self, model: type[M], query: Query | None) -> list[M]:
        """The rows matching ``query``, unsorted: the one read path.

        Every query verb lands here, so this is the one place that counts
        the query, records its read-set, asks :func:`repro.fbnet.query.plan`
        for index candidates, and falls back to the scan.  Candidates are
        a superset; the same ``query.matches`` filter runs over them as
        over a scan, so the plan taken never changes the answer.

        The filter runs under :meth:`_suspend_tracking`: the FK hops
        ``matches`` resolves are membership tests, not semantic reads.
        """
        ensure_query(query)
        obs.counter("store.query", store=self.name, model=model.__name__).inc()
        with obs.timed("store.query.latency", store=self.name):
            if query is None:
                self._note_model_read(model)
                return list(self._iter_rows(model))
            candidates = plan(self, model, query)
            # What is recorded depends on the query and the schema, never
            # on the data or on which rows the plan touched.
            if candidates is not None and isinstance(query, Expr):
                # An indexed lookup depends on exactly the tables it probed.
                for name in candidates:
                    self._note_field_read(name, query.field, query.rvalues)
            else:
                self._note_query_read(model, query)
            if candidates is None:
                obs.counter(
                    "store.planner.scan", store=self.name, model=model.__name__
                ).inc()
                rows = self._iter_rows(model)
            else:
                rows = self._candidate_rows(candidates)
            with self._suspend_tracking():
                return [row for row in rows if query.matches(row)]

    def _candidate_rows(self, candidates: dict[str, set[int]]) -> list[Model]:
        """The live rows behind a plan's candidate ids."""
        rows = (
            self._row(name, obj_id)
            for name, ids in candidates.items()
            for obj_id in ids
        )
        return [row for row in rows if row is not None]

    # ------------------------------------------------------------------
    # Journal / replication hooks
    # ------------------------------------------------------------------

    def _record(
        self,
        op: ChangeOp,
        obj: Model,
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
                model=type(obj).__name__,
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

    def journal_since(self, position: int) -> list[ChangeRecord]:
        return self._journal[position:]

    @property
    def journal_position(self) -> int:
        return len(self._journal)

    def add_commit_listener(self, fn: Callable[[list[ChangeRecord]], None]) -> None:
        """Register ``fn`` to receive each committed transaction's records."""
        self._commit_listeners.append(fn)

    def apply_record(self, record: ChangeRecord, home: int | None = None) -> None:
        """Apply a journal record from another store (replication receive).

        Object ids are preserved so that replicas remain id-compatible with
        the master.  ``home`` is recovery's: where the WAL says the row of
        a CREATE lives (see :meth:`_table`).
        """
        model = model_registry.get(record.model)
        creating = record.op is ChangeOp.CREATE
        table = self._table(
            record.model, record.obj_id, record.values if creating else None, home
        )
        if creating:
            obj = model.__new__(model)
            obj.__dict__.update(record.values)
            obj.id = record.obj_id
            obj._store = self
            table[record.obj_id] = obj
            self._index(obj)
            # Keep local id allocation ahead of replicated ids so a promoted
            # replica never reuses a master-assigned id.
            self._next_id = max(self._next_id, record.obj_id + 1)
        elif record.op is ChangeOp.UPDATE:
            obj = table.get(record.obj_id)
            if obj is None:
                obs.counter(
                    "store.replication.divergence", store=self.name, op="update"
                ).inc()
                raise TransactionError(
                    f"replication update for missing {record.model} id={record.obj_id}"
                )
            self._unindex(obj)
            obj.__dict__.update(record.values)
            self._index(obj)
        else:  # DELETE
            obj = table.pop(record.obj_id, None)
            if obj is None:
                # A delete for a row we never had means this store diverged
                # from the journal's source — surface it like UPDATE does
                # instead of masking the drift.
                obs.counter(
                    "store.replication.divergence", store=self.name, op="delete"
                ).inc()
                raise TransactionError(
                    f"replication delete for missing {record.model} id={record.obj_id}"
                )
            self._unindex(obj)
            obj.id = None
            obj._store = None
        if self._durability is not None:
            self._durability.log_applied(record)
        self._journal.append(record)

    # ------------------------------------------------------------------
    # Durability (see repro.fbnet.durability)
    # ------------------------------------------------------------------

    def attach_durability(
        self,
        root: Any,
        *,
        snapshot_every: int | None = None,
        fsync: bool = False,
    ):
        """Journal every commit to a write-ahead log under ``root``.

        If this store already has history, a snapshot is written first so
        the WAL only needs to cover what follows.  Returns the attached
        :class:`~repro.fbnet.durability.DurabilityEngine`.
        """
        from repro.fbnet.durability import DurabilityEngine

        if self._durability is not None:
            raise TransactionError(f"store {self.name!r} already has durability")
        self._durability = DurabilityEngine(
            self, root, snapshot_every=snapshot_every, fsync=fsync
        )
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
        snapshot_every: int | None = None,
        fsync: bool = False,
    ) -> ObjectStore:
        """Rebuild a store from the durability root a crashed one left.

        Loads the newest valid snapshot, replays the WAL tail (truncating
        a torn tail frame), and returns a store whose tables, indexes, and
        journal match the crashed store at its last durable commit — a
        sharded store when the root says a sharded one wrote it.
        """
        from repro.fbnet.durability import recover_store

        return recover_store(
            root,
            name=name,
            attach=attach,
            snapshot_every=snapshot_every,
            fsync=fsync,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _partitions(self) -> list[dict[str, dict[int, Model]]]:
        """Every table set rows live in (one, unless partitioned)."""
        return [self._tables]

    def table_sizes(self) -> dict[str, int]:
        """Row count per concrete model (only non-empty tables)."""
        sizes: dict[str, int] = {}
        for tables in self._partitions():
            for name, rows in tables.items():
                if rows:
                    sizes[name] = sizes.get(name, 0) + len(rows)
        return sizes

    def total_objects(self) -> int:
        return sum(
            len(rows) for tables in self._partitions() for rows in tables.values()
        )

    def _digest_tables(self) -> dict[str, dict[int, Model]]:
        """Every non-empty table, partitions merged, as one mapping — the
        fingerprinting surface, so :func:`repro.fbnet.durability.store_digest`
        compares sharded and single stores on equal footing."""
        merged: dict[str, dict[int, Model]] = {}
        for tables in self._partitions():
            for model_name, rows in tables.items():
                if rows:
                    merged.setdefault(model_name, {}).update(rows)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectStore {self.name!r} objects={self.total_objects()}>"
