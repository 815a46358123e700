"""The FBNet query language (paper section 4.2.1).

A query is a tree of *expressions* of the form ``<field> <op> <rvalue>``
where ``field`` is a local or indirect (dotted) value field, ``op`` is a
comparison operator, and ``rvalue`` is a list of values to compare against.
Expressions compose with logical ``And``/``Or``/``Not`` into arbitrarily
complex queries.

Dotted field paths traverse relationship fields — forwards through foreign
keys (``linecard.device.name``) and backwards through reverse connections
(``device.linecards.slot``).  A reverse hop fans out to many objects, in
which case an expression matches if *any* leaf value matches.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from enum import Enum
from itertools import product
from typing import TYPE_CHECKING, Any

from repro.common.errors import QueryError
from repro.fbnet.base import Model, model_registry
from repro.fbnet.fields import ForeignKey

if TYPE_CHECKING:
    from repro.fbnet.store import ObjectStore

__all__ = [
    "And",
    "Expr",
    "Not",
    "Op",
    "Or",
    "Query",
    "fold_equalities",
    "plan",
    "resolve_path",
]


class Op(Enum):
    """Comparison operators available in query expressions."""

    EQUAL = "=="
    NOT_EQUAL = "!="
    REGEXP = "=~"
    GT = ">"
    GTE = ">="
    LT = "<"
    LTE = "<="
    CONTAINS = "contains"
    STARTSWITH = "startswith"
    IS_NULL = "isnull"


_ORDERED_OPS = {Op.GT, Op.GTE, Op.LT, Op.LTE}


def resolve_path(obj: Model, path: str) -> list[Any]:
    """Resolve a dotted field ``path`` from ``obj`` to its leaf values.

    Forward FK hops yield at most one next object; reverse-relation hops
    fan out.  Missing links (null FKs) contribute no leaves.  The final
    segment must be a value field (or ``id``); enum values are unwrapped
    to their raw ``.value`` for comparison.
    """
    parts = path.split(".")
    current: list[Model] = [obj]
    for index, part in enumerate(parts):
        is_last = index == len(parts) - 1
        id_follows = parts[index + 1 :] == ["id"]
        next_objects: list[Model] = []
        next_ids: list[int] = []
        leaves: list[Any] = []
        for node in current:
            meta = type(node)._meta
            if part == "id":
                leaves.append(node.id)
                continue
            field = meta.fields.get(part)
            if isinstance(field, ForeignKey):
                # A terminal FK segment, or an FK followed only by ``id``,
                # asks for the id the row itself holds: the target is not
                # resolved through the store just to read it back.
                raw = node.__dict__.get(part)
                if raw is None:
                    continue
                if is_last:
                    leaves.append(raw)
                elif id_follows:
                    next_ids.append(raw)
                else:
                    next_objects.append(node.related(part))
                continue
            if field is not None:
                value = node.__dict__.get(part)
                if isinstance(value, Enum):
                    value = value.value
                leaves.append(value)
                continue
            reverse = model_registry.reverse_relations(type(node))
            if part in reverse:
                next_objects.extend(node.__getattr__(part))
                continue
            raise QueryError(
                f"unknown field {part!r} in path {path!r} on {type(node).__name__}"
            )
        if is_last:
            if next_objects and not leaves:
                raise QueryError(
                    f"path {path!r} ends on a relationship; "
                    "append a value field (e.g. '.name')"
                )
            return leaves
        if next_ids:
            return next_ids
        current = next_objects
        if not current:
            return []
    return []


class Query:
    """Abstract base of all query nodes."""

    def matches(self, obj: Model) -> bool:
        raise NotImplementedError

    def to_wire(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict for the RPC layer."""
        raise NotImplementedError

    @staticmethod
    def from_wire(data: dict[str, Any] | None) -> Query | None:
        """Reconstruct a query tree from :meth:`to_wire` output."""
        if data is None:
            return None
        kind = data.get("kind")
        if kind == "expr":
            # Expr validates the operator string itself (QueryError on
            # unknown ops, rather than a bare ValueError from Op()).
            return Expr(data["field"], data["op"], list(data["rvalues"]))
        if kind == "and":
            return And(*[Query.from_wire(child) for child in data["children"]])
        if kind == "or":
            return Or(*[Query.from_wire(child) for child in data["children"]])
        if kind == "not":
            return Not(Query.from_wire(data["child"]))
        raise QueryError(f"bad wire query node: {data!r}")

    def __and__(self, other: Query) -> Query:
        return And(self, other)

    def __or__(self, other: Query) -> Query:
        return Or(self, other)

    def __invert__(self) -> Query:
        return Not(self)


class Expr(Query):
    """A single ``<field> <op> <rvalue>`` comparison.

    ``rvalue`` may be a scalar or a list; for ``EQUAL``/``NOT_EQUAL``/
    ``REGEXP`` a list means "any of" (per the paper, rvalue is a list of
    values to compare against).  Ordered operators require exactly one
    rvalue.
    """

    def __init__(self, field: str, op: Op | str, rvalue: Any = None):
        if not isinstance(op, Op):
            try:
                op = Op(op)
            except ValueError:
                raise QueryError(f"unknown operator {op!r}") from None
        self.field = field
        self.op = op
        if op is Op.IS_NULL:
            # A wire round-trip delivers the bool wrapped in a one-element
            # list; unwrap it, otherwise bool([False]) would silently flip
            # isnull=False to isnull=True.
            if isinstance(rvalue, (list, tuple)) and len(rvalue) == 1:
                rvalue = rvalue[0]
            self.rvalues: tuple[Any, ...] = (bool(rvalue) if rvalue is not None else True,)
        elif isinstance(rvalue, (list, tuple, set, frozenset)):
            self.rvalues = tuple(rvalue)
        else:
            self.rvalues = (rvalue,)
        if op in _ORDERED_OPS and len(self.rvalues) != 1:
            raise QueryError(f"{op.name} takes exactly one rvalue")
        if not self.rvalues and op is not Op.IS_NULL:
            raise QueryError("empty rvalue list")
        if op is Op.REGEXP:
            try:
                self._patterns = [re.compile(str(p)) for p in self.rvalues]
            except re.error as exc:
                raise QueryError(f"bad regexp in query: {exc}") from None

    def matches(self, obj: Model) -> bool:
        leaves = resolve_path(obj, self.field)
        if self.op is Op.IS_NULL:
            want_null = bool(self.rvalues[0])
            is_null = not leaves or all(leaf is None for leaf in leaves)
            return is_null == want_null
        if self.op is Op.NOT_EQUAL:
            # NOT_EQUAL is the negation of EQUAL over the leaf set.
            return not any(self._compare_equal(leaf) for leaf in leaves)
        return any(self._compare(leaf) for leaf in leaves)

    def _compare_equal(self, leaf: Any) -> bool:
        return any(leaf == rv for rv in self.rvalues)

    def _compare(self, leaf: Any) -> bool:
        op = self.op
        if op is Op.EQUAL:
            return self._compare_equal(leaf)
        if op is Op.REGEXP:
            if leaf is None:
                return False
            return any(p.search(str(leaf)) for p in self._patterns)
        if op is Op.CONTAINS:
            if leaf is None:
                return False
            return any(str(rv) in str(leaf) for rv in self.rvalues)
        if op is Op.STARTSWITH:
            if leaf is None:
                return False
            return any(str(leaf).startswith(str(rv)) for rv in self.rvalues)
        if op in _ORDERED_OPS:
            if leaf is None:
                return False
            rv = self.rvalues[0]
            try:
                if op is Op.GT:
                    return leaf > rv
                if op is Op.GTE:
                    return leaf >= rv
                if op is Op.LT:
                    return leaf < rv
                return leaf <= rv
            except TypeError:
                raise QueryError(
                    f"cannot order {type(leaf).__name__} against {type(rv).__name__} "
                    f"for field {self.field!r}"
                ) from None
        raise QueryError(f"unhandled operator {op}")  # pragma: no cover

    def to_wire(self) -> dict[str, Any]:
        return {
            "kind": "expr",
            "field": self.field,
            "op": self.op.value,
            "rvalues": list(self.rvalues),
        }

    def __repr__(self) -> str:
        return f"Expr({self.field!r} {self.op.value} {list(self.rvalues)!r})"


class And(Query):
    """True when every child query matches."""

    def __init__(self, *children: Query):
        if not children:
            raise QueryError("And() requires at least one child")
        for child in children:
            if not isinstance(child, Query):
                raise QueryError(
                    f"And() children must be Query nodes, got {child!r}"
                )
        self.children = children

    def matches(self, obj: Model) -> bool:
        return all(child.matches(obj) for child in self.children)

    def to_wire(self) -> dict[str, Any]:
        return {"kind": "and", "children": [c.to_wire() for c in self.children]}

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.children))})"


class Or(Query):
    """True when any child query matches."""

    def __init__(self, *children: Query):
        if not children:
            raise QueryError("Or() requires at least one child")
        for child in children:
            if not isinstance(child, Query):
                raise QueryError(
                    f"Or() children must be Query nodes, got {child!r}"
                )
        self.children = children

    def matches(self, obj: Model) -> bool:
        return any(child.matches(obj) for child in self.children)

    def to_wire(self) -> dict[str, Any]:
        return {"kind": "or", "children": [c.to_wire() for c in self.children]}

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.children))})"


class Not(Query):
    """True when the child query does not match."""

    def __init__(self, child: Query):
        if not isinstance(child, Query):
            # Catch a malformed wire tree (e.g. {"kind": "not", "child":
            # null}) at parse time rather than AttributeError at match time.
            raise QueryError(f"Not() requires a Query child, got {child!r}")
        self.child = child

    def matches(self, obj: Model) -> bool:
        return not self.child.matches(obj)

    def to_wire(self) -> dict[str, Any]:
        return {"kind": "not", "child": self.child.to_wire()}

    def __repr__(self) -> str:
        return f"Not({self.child!r})"


def ensure_query(query: Query | None) -> Query | None:
    """Validate the ``query`` argument of read APIs."""
    if query is not None and not isinstance(query, Query):
        raise QueryError(f"expected a Query, got {type(query).__name__}")
    return query


def _is_local_equality(query: Query) -> bool:
    return (
        isinstance(query, Expr)
        and query.op is Op.EQUAL
        and "." not in query.field
    )


def fold_equalities(
    query: Query,
    leaf: Callable[[Expr], list | None],
    conjunction: Callable[[list[Expr]], list | None] | None = None,
) -> list | None:
    """The equality decomposition of a query, written once.

    Folds ``query`` over its local-field equality tests and returns their
    concatenated answers, or ``None`` when such tests cannot bound the
    query (dotted paths, other operators, ``Not``).  ``leaf`` answers one
    ``field == values`` test with a list, or ``None`` for "cannot"; the
    fold supplies the logic:

    * ``Or`` needs *every* child answered, since a row may match through
      any branch.
    * ``And`` needs only one: its matches are a subset of any child's.
      ``conjunction``, when given, is first offered the ``And``'s direct
      equality children together, for a caller that can answer a field
      *combination* more tightly than any single field.

    Two consumers: :func:`plan` (an answer is index candidates) and
    :func:`repro.fbnet.changelog.equality_dependencies` (an answer is a
    read dependency) — so what a query reads and how it is served are
    derived from the same decomposition.
    """
    if isinstance(query, Expr):
        return leaf(query) if _is_local_equality(query) else None
    if isinstance(query, Or):
        answers: list = []
        for child in query.children:
            answer = fold_equalities(child, leaf, conjunction)
            if answer is None:
                return None
            answers.extend(answer)
        return answers
    if isinstance(query, And):
        if conjunction is not None:
            together = [c for c in query.children if _is_local_equality(c)]
            answer = conjunction(together) if len(together) > 1 else None
            if answer is not None:
                return answer
        for child in query.children:
            answer = fold_equalities(child, leaf, conjunction)
            if answer is not None:
                return answer
    return None


#: The kinds of index :func:`plan` probes (what an access path names).
_FK, _UNIQUE, _TOGETHER = "fk", "unique", "together"


def plan(
    store: ObjectStore, model: type[Model], query: Query
) -> dict[str, set[int]] | None:
    """The one index-or-scan decision, for every read verb of every store.

    Returns candidate row ids per concrete model name — a superset of the
    rows matching ``query``, which the caller filters with
    ``query.matches`` so the answer is by construction the scan's — or
    ``None`` when only a scan can answer.  It consults nothing but the
    three indexes ``store`` already maintains for constraint checking:
    reverse-FK, unique, and ``unique_together``.

    *Which* index answers a set of queried fields is a fact of the schema
    (:func:`_access_paths`, remembered per ``(model, fields)``); a call
    only probes.  The indexes skip null values, so a null rvalue is never
    answered from them, nor is a non-integer one from the reverse-FK index.
    """

    def probe(exprs: list[Expr]) -> list[dict[str, set[int]]] | None:
        wanted = {expr.field: expr.rvalues for expr in exprs}
        memo, shape = model_registry.memo, (model, frozenset(wanted))
        try:
            paths = memo[shape]
        except KeyError:
            paths = memo[shape] = _access_paths(model, wanted.keys())
        if paths is None:
            return None
        for values in wanted.values():
            if None in values:
                return None
        key = store._hashable
        found: dict[str, set[int]] = {}
        for name, kind, index_key in paths:
            if kind is _FK:
                (values,) = wanted.values()
                if not all(isinstance(value, int) for value in values):
                    return None
                buckets = store._reverse_index.get(index_key, {})
                found[name] = {i for value in values for i in buckets.get(value, ())}
            elif kind is _UNIQUE:
                (values,) = wanted.values()
                held = store._unique_index.get(index_key, {})
                found[name] = {held[k] for k in map(key, values) if k in held}
            else:
                held = store._unique_together_index.get(index_key, {})
                group = index_key[1]
                combos = product(*([key(v) for v in wanted[field]] for field in group))
                found[name] = {held[combo] for combo in combos if combo in held}
        return [found]

    answers = fold_equalities(query, lambda expr: probe([expr]), probe)
    if answers is None:
        return None
    candidates: dict[str, set[int]] = {}
    for found in answers:
        for name, ids in found.items():
            candidates.setdefault(name, set()).update(ids)
    return candidates


def _access_paths(
    model: type[Model], fields: Any
) -> tuple[tuple[str, str, tuple], ...] | None:
    """Which index answers equality on ``fields``, per concrete model.

    One ``(concrete model name, kind, key)`` per member of ``model``'s
    family that has every queried field, ``key`` being the store's own key
    for the index that answers: the member's reverse-FK index on a lone FK
    field, its family's unique index on a lone unique field, else a
    ``unique_together`` group the fields cover.  A member without the
    fields contributes nothing; ``None`` — scan — when no member has them,
    or one has them and holds no index for them.
    """
    paths = []
    for concrete in model_registry.family(model):
        meta, name = concrete._meta, concrete.__name__
        if not fields <= meta.fields.keys():
            continue
        (lone,) = fields if len(fields) == 1 else (None,)
        if lone in meta.fk_fields:
            paths.append((name, _FK, (name, lone)))
        elif lone in meta.unique_fields:
            paths.append((name, _UNIQUE, (meta.family_root.__name__, lone)))
        else:
            group = next((g for g in meta.unique_together if fields >= set(g)), None)
            if group is None:
                return None
            paths.append((name, _TOGETHER, (name, group)))
    return tuple(paths) or None
