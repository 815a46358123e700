"""Change propagation over the FBNet journal: read-sets and their index.

The store's journal (:class:`~repro.fbnet.store.ChangeRecord`) has always
recorded *what changed*; this module turns it into a propagation layer by
also capturing *who read what*.  A :class:`ReadSet` records the objects,
indexed lookups, and model scans one computation performed (the store
fills it in while a :meth:`~repro.fbnet.store.ObjectStore.track_reads`
block is active), and can then decide whether a later journal record
invalidates that computation.  A :class:`ReadSetIndex` holds many
read-sets inverted, so one journal record maps straight onto the
computations it invalidates.  The journal is read one way, here: a
:class:`JournalFollower` walks it forward for an index, and
:func:`changes_since` answers one read-set from a position (DESIGN.md
§2.10).  Config generation, the read cache and design concurrency are
their users.

Dependency kinds, from most to least precise:

* **object** ``(model, id)`` — a ``get()``/``related()`` resolution;
  matches records for exactly that object.
* **field** ``(model, field, values)`` — an equality lookup (FK reverse
  edge, unique index, or an analyzable equality query); matches records
  whose post-change value for ``field`` is in ``values`` — or, for
  updates, records where ``field`` itself changed (the old value may
  have matched, e.g. an interface moving between devices must dirty both
  ends).
* **model** ``(model,)`` — a full scan or unanalyzable query; matches
  every record of the model or its subclasses.  Conservative but always
  correct: the equivalence guarantee (incremental ≡ full) rests on each
  fallback being a superset of the true dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.common.errors import CursorAheadError
from repro.fbnet.base import hashable as _norm, model_registry
from repro.fbnet.query import And, Expr, Or, Query, fold_equalities, path_plan

if TYPE_CHECKING:
    from repro.fbnet.base import Model
    from repro.fbnet.store import ChangeRecord, ObjectStore

__all__ = [
    "JournalFollower",
    "ReadSet",
    "ReadSetIndex",
    "changes_since",
    "equality_dependencies",
    "query_models",
]


def equality_dependencies(query: Query) -> list[tuple[str, tuple[Any, ...]]] | None:
    """Decompose ``query`` into ``(field, values)`` equality dependencies.

    Returns ``None`` when the query cannot be reduced to local-field
    equality tests (dotted paths, ordered/regex/null operators, ``Not``)
    — the caller must then fall back to a model-level dependency.

    The And/Or logic is :func:`repro.fbnet.query.fold_equalities` — the
    same decomposition the query planner serves from its indexes: ``And``
    only needs one analyzable child (its result set is a subset of that
    child's matches, and any record *of the queried model* that could
    change membership either matches the child's values or changed the
    child's field), ``Or`` needs *every* child analyzable.  Records of
    the models a dotted sibling traverses are :func:`query_models`'.
    """
    return fold_equalities(
        query, lambda expr: [(expr.field, tuple(_norm(v) for v in expr.rvalues))]
    )


def _iter_exprs(query: Query) -> Iterable[Expr]:
    if isinstance(query, Expr):
        yield query
    elif isinstance(query, (And, Or)):
        for child in query.children:
            yield from _iter_exprs(child)
    else:  # Not
        child = getattr(query, "child", None)
        if child is not None:
            yield from _iter_exprs(child)


def query_models(model: type[Model], query: Query) -> set[str]:
    """The models ``query`` depends on wholesale: the queried model itself
    when the equality analyzer rejects it — the conservative fallback —
    and, analyzable or not, every model its dotted paths traverse
    (``PathPlan.models``).  Membership also changes when a *traversed*
    object mutates (``pop.name == "x"`` depends on Pop records, not just
    the queried device's); no analysis of the queried model's own fields
    covers that.
    """
    analyzable = fold_equalities(query, lambda expr: []) is not None
    names = set() if analyzable else {model.__name__}
    for expr in _iter_exprs(query):
        names |= path_plan(model, expr.field).models
    return names


@dataclass
class ReadSet:
    """Everything one computation read from an :class:`ObjectStore`.

    Filled in by the store while a ``track_reads`` block is active;
    afterwards :meth:`matches` answers "does this journal record
    invalidate the computation?" in O(record fields).
    """

    #: Model names read via full scans / unanalyzable queries.
    models: set[str] = field(default_factory=set)
    #: ``(model, id)`` pairs read individually.
    objects: set[tuple[str, int]] = field(default_factory=set)
    #: ``model -> field -> normalized values`` equality lookups.
    fields: dict[str, dict[str, set[Any]]] = field(default_factory=dict)

    # -- recording (called by the store) ------------------------------------

    def add_model(self, model_name: str) -> None:
        self.models.add(model_name)

    def add_object(self, model_name: str, obj_id: int) -> None:
        self.objects.add((model_name, obj_id))

    def add_field(self, model_name: str, field_name: str, values: Iterable[Any]) -> None:
        bucket = self.fields.setdefault(model_name, {}).setdefault(field_name, set())
        for value in values:
            bucket.add(_norm(value))

    def merge(self, other: ReadSet) -> None:
        self.models |= other.models
        self.objects |= other.objects
        for model_name, per_field in other.fields.items():
            for field_name, values in per_field.items():
                self.add_field(model_name, field_name, values)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return (
            len(self.models)
            + len(self.objects)
            + sum(len(v) for per in self.fields.values() for v in per.values())
        )

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- invalidation -------------------------------------------------------

    def matches(self, record: ChangeRecord) -> bool:
        """Whether ``record`` could change what this computation read."""
        family = model_registry.ancestry(record.model)
        if self.models and not self.models.isdisjoint(family):
            return True
        if self.objects:
            for name in family:
                if (name, record.obj_id) in self.objects:
                    return True
        if self.fields:
            changed = record.changed_fields
            for name in family:
                per_field = self.fields.get(name)
                if not per_field:
                    continue
                for field_name, values in per_field.items():
                    if field_name in changed:
                        # The field itself changed: the *old* value may
                        # have matched even though the new one does not.
                        return True
                    if _norm(record.values.get(field_name)) in values:
                        return True
        return False


class ReadSetIndex:
    """Many read-sets, inverted: journal record -> the keys it invalidates.

    ``affected(record)`` answers exactly ``{key for key, read_set in
    puts if read_set.matches(record)}`` — :meth:`ReadSet.matches` stays
    the reference predicate — but from postings instead of by asking
    every read-set, so a journal follower (the config generator, the
    read cache) pays O(record family x indexed fields of that family)
    per record however many read-sets it holds.

    Posting terms mirror the three dependency kinds: ``(model,)``,
    ``(model, id)`` and ``(model, field, value)``; a fourth,
    ``(model, field)``, lists every key with *any* dependency on that
    field, for the "field itself changed" rule of an UPDATE.
    """

    def __init__(self) -> None:
        #: posting term -> keys whose read-set holds that term.
        self._postings: dict[tuple, set[Any]] = {}
        #: key -> the terms it was put under (a read-set is mutable; the
        #: discard must remove what the put added).
        self._terms: dict[Any, tuple[tuple, ...]] = {}
        #: model -> field names ever put, so a record is probed once per
        #: indexed field, not once per value (bounded by the schema, so
        #: discards leave it alone).
        self._fields: dict[str, set[str]] = {}

    def put(self, key: Any, read_set: ReadSet) -> None:
        """Index ``read_set`` under ``key``, replacing any earlier put."""
        self.discard(key)
        terms: list[tuple] = [(name,) for name in read_set.models]
        terms.extend(read_set.objects)
        for model_name, per_field in read_set.fields.items():
            for field_name, values in per_field.items():
                terms.append((model_name, field_name))
                terms.extend((model_name, field_name, value) for value in values)
                self._fields.setdefault(model_name, set()).add(field_name)
        for term in terms:
            self._postings.setdefault(term, set()).add(key)
        self._terms[key] = tuple(terms)

    def discard(self, key: Any) -> None:
        """Forget ``key`` (a no-op when it was never put)."""
        for term in self._terms.pop(key, ()):
            bucket = self._postings[term]
            bucket.discard(key)
            if not bucket:
                del self._postings[term]

    def clear(self) -> None:
        self._postings.clear()
        self._terms.clear()
        self._fields.clear()

    def affected(self, record: ChangeRecord) -> set[Any]:
        """The keys whose read-set ``record`` matches."""
        postings = self._postings
        keys: set[Any] = set()
        changed = record.changed_fields
        for name in model_registry.ancestry(record.model):
            keys.update(postings.get((name,), ()))
            keys.update(postings.get((name, record.obj_id), ()))
            for field_name in self._fields.get(name, ()):
                if field_name in changed:
                    # The field itself changed: the *old* value may have
                    # matched even though the new one does not.
                    term: tuple = (name, field_name)
                else:
                    term = (name, field_name, _norm(record.values.get(field_name)))
                keys.update(postings.get(term, ()))
        return keys


def changes_since(
    store: ObjectStore, position: int, read_set: ReadSet
) -> list[ChangeRecord] | None:
    """The records since ``position`` that ``read_set`` depends on, or
    ``None`` — stale, never "nothing changed" — for a position past the
    journal's end (another journal's, or one whose tail a promotion lost)."""
    if position > store.journal_position:
        return None
    return list(filter(read_set.matches, store.journal_since(position)))


class JournalFollower:
    """A cursor over one store's journal and the read-sets it answers for;
    it never passes the journal's end, and one set past it is refused."""

    __slots__ = ("store", "index", "position")

    def __init__(self, store: ObjectStore):
        self.store = store
        self.index = ReadSetIndex()
        self.position = store.journal_position

    def rewind(self, position: int) -> None:
        """Follow the records from ``position`` again, if already past it."""
        self.position = min(self.position, position)

    def follow(self, floor: int = 0) -> Iterable[tuple[int, ChangeRecord, set[Any]]]:
        """``(position, record, keys it invalidates)`` for each new record
        from ``floor`` on (at most the end); caught up, one compare."""
        end = self.store.journal_position
        if self.position == end:
            return ()
        if self.position > end:
            raise CursorAheadError(f"journal cursor at {self.position}, past its end {end}")
        return self._follow(max(self.position, min(floor, end)))

    def _follow(self, start: int) -> Iterator[tuple[int, ChangeRecord, set[Any]]]:
        self.position = start
        affected = self.index.affected
        for position, record in enumerate(self.store.journal_since(start), start):
            self.position = position + 1
            yield position, record, affected(record)
