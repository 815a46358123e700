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

What a path *is* on a model is a fact of the schema, classified once
(:func:`path_plan`); :meth:`Query.compile` evaluates a query through it,
as one predicate per table.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from enum import Enum
from functools import partial
from itertools import product
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.common.errors import QueryError
from repro.fbnet.base import Model, model_registry
from repro.fbnet.fields import EnumField, ForeignKey

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
    "path_plan",
    "plan",
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


_ORDERED_OPS = {
    Op.GT: operator.gt, Op.GTE: operator.ge, Op.LT: operator.lt, Op.LTE: operator.le,
}


#: What one path segment names on one concrete model (:func:`_hop`).
_VALUE, _ENUM, _FORWARD, _REVERSE = "value", "enum", "forward", "reverse"


def _hop(model: type[Model], part: str) -> tuple[str | None, type[Model] | None]:
    """What ``part`` names on a row of concrete ``model``, decided once: the
    kind (``None``: nothing; ``id`` is a value, a stored row holds it) and
    the model an FK or a reverse relation leads to."""
    memo, key = model_registry.memo, ("hop", model, part)
    hop = memo.get(key)
    if hop is None:
        field = None if part == "id" else model._meta.fields.get(part)
        if isinstance(field, ForeignKey):
            hop = (_FORWARD, field.to)
        elif field is not None or part == "id":
            hop = (_ENUM if isinstance(field, EnumField) else _VALUE, None)
        else:
            source = model_registry.reverse_relations(model).get(part)
            hop = (_REVERSE, source[0]) if source else (None, None)
        memo[key] = hop
    return hop


def _walk(parts: tuple[str, ...], path: str, obj: Model) -> list[Any]:
    """A path's leaves, errors and store reads (hops go through
    ``Model.related`` and the reverse accessor), level by level, each node's
    segment looked up (:func:`_hop`) instead of derived; the tests hold it
    to a per-call reference walk (``tests/fbnet/test_query.py``)."""
    last = len(parts) - 1
    current = [obj]
    for depth, part in enumerate(parts):
        leaves, ids, onward = [], [], []  # values; FK ids; rows to go on from
        for node in current:
            kind = _hop(type(node), part)[0]
            if kind is _REVERSE:
                onward.extend(node.__getattr__(part))
            elif kind is None:
                raise QueryError(
                    f"unknown field {part!r} in path {path!r} on {type(node).__name__}"
                )
            elif (value := node.__dict__.get(part)) is None and kind is _FORWARD:
                pass  # a null FK: no leaf, nothing to follow
            elif kind is _ENUM and isinstance(value, Enum):
                leaves.append(value.value)
            elif kind is not _FORWARD or depth == last:
                leaves.append(value)  # a value, or the FK's id off the row
            elif parts[depth + 1 :] == ("id",):
                ids.append(value)
            else:
                onward.append(node.related(part))
        if depth == last:
            if onward and not leaves:
                raise QueryError(
                    f"path {path!r} ends on a relationship; "
                    "append a value field (e.g. '.name')"
                )
            return leaves
        if ids:
            return ids
        current = onward
    return []


class PathPlan(NamedTuple):
    """A dotted path as the rows of one model see it (:func:`path_plan`)."""

    #: ``row -> leaf values`` (:func:`_walk`).
    leaves: Callable[[Model], list[Any]]
    #: ``row -> value`` when the path is one field of the row itself (``id``,
    #: a value, an enum unwrapped, an FK's raw id), else ``None``.
    read: Callable[[Model], Any] | None
    #: Whether a ``None`` that ``read`` answers is no leaf (a null FK).
    optional: bool
    #: ``row -> what the read API returns``: the leaves where the path fans
    #: out (``multi``: it crosses a reverse relation), else the one or ``None``.
    project: Callable[[Model], Any]
    multi: bool
    #: The models whose rows the walk resolves through the store; an FK read
    #: off the row (terminal, or followed only by ``id``) traverses nothing.
    models: frozenset[str]


def path_plan(model: type[Model], path: str) -> PathPlan:
    """``path`` from ``model``, classified once per registered model set.

    An FK may point at an abstract family (``Linecard.device -> Device``)
    whose members declare their own fields (``PeeringRouter.pop``): a row
    is walked by its own concrete type, and the static facts (``multi``,
    ``models``) expand ``model`` and every FK target to its family.
    """
    memo, key = model_registry.memo, ("path", model, path)
    if key in memo:
        return memo[key]
    parts = tuple(path.split("."))
    last = len(parts) - 1
    multi, models = False, set()
    level = set(model_registry.family(model))
    for depth, part in enumerate(parts):
        # An FK read off the row (terminal, or only ``id`` follows) goes nowhere.
        follows = depth < last and parts[depth + 1 :] != ("id",)
        hops = {_hop(klass, part) for klass in level}
        level = set()
        for kind, target in hops:
            if kind is _REVERSE or (kind is _FORWARD and follows):
                multi = multi or kind is _REVERSE
                models.add(target.__name__)
                level.update(model_registry.family(target))

    leaves = partial(_walk, parts, path)
    name, kind = parts[0], None if last else _hop(model, parts[0])[0]
    read: Callable[[Model], Any] | None = None
    if kind is _ENUM:
        def read(row):
            value = row.__dict__.get(name)
            return value.value if isinstance(value, Enum) else value
    elif kind is _VALUE or kind is _FORWARD:
        def read(row):
            return row.__dict__.get(name)
    project = read or leaves
    if read is None and not multi:
        def project(row):
            found = leaves(row)
            return found[0] if found else None
    memo[key] = found = PathPlan(
        leaves, read, kind is _FORWARD, project, multi, frozenset(models)
    )
    return found


class Query:
    """Abstract base of all query nodes."""

    def compile(self, model: type[Model]) -> Callable[[Model], bool]:
        """The query as one predicate over the rows of concrete ``model``.
        A field the model lacks is the predicate's :class:`QueryError`, on
        the first row it is asked about, never the compilation's."""
        raise NotImplementedError

    def matches(self, obj: Model) -> bool:
        return self.compile(type(obj))(obj)

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
        self._test = self._leaf_test()

    def _leaf_test(self) -> Callable[[Any], bool]:
        """The operator and rvalues as one test of one leaf (``NOT_EQUAL``
        tests equality, ``IS_NULL`` nullness: :meth:`compile` folds them)."""
        op, rvalues, field = self.op, self.rvalues, self.field
        if op is Op.IS_NULL:
            return lambda leaf: leaf is None
        if op is Op.EQUAL or op is Op.NOT_EQUAL:
            if len(rvalues) == 1:
                (only,) = rvalues
                return lambda leaf: leaf == only
            return lambda leaf: any(leaf == rv for rv in rvalues)
        if op in _ORDERED_OPS:
            compare, (bound,) = _ORDERED_OPS[op], rvalues

            def ordered(leaf: Any) -> bool:
                try:
                    return leaf is not None and compare(leaf, bound)
                except TypeError:
                    raise QueryError(
                        f"cannot order {type(leaf).__name__} against "
                        f"{type(bound).__name__} for field {field!r}"
                    ) from None

            return ordered
        if op is Op.REGEXP:
            try:
                searches = [re.compile(str(p)).search for p in rvalues]
            except re.error as exc:
                raise QueryError(f"bad regexp in query: {exc}") from None
            return lambda leaf: leaf is not None and any(
                search(str(leaf)) is not None for search in searches
            )
        texts = tuple(str(rv) for rv in rvalues)
        if op is Op.STARTSWITH:
            return lambda leaf: leaf is not None and str(leaf).startswith(texts)
        return lambda leaf: leaf is not None and any(t in str(leaf) for t in texts)

    def compile(self, model: type[Model]) -> Callable[[Model], bool]:
        plan = path_plan(model, self.field)
        test, read, leaves = self._test, plan.read, plan.leaves
        # IS_NULL must hold of all leaves (so of none), any other test of
        # some leaf; NOT_EQUAL is EQUAL over the leaf set, negated.
        fold = all if self.op is Op.IS_NULL else any
        want = self.rvalues[0] if self.op is Op.IS_NULL else self.op is not Op.NOT_EQUAL
        if read is None:
            return lambda row: fold(map(test, leaves(row))) == want
        if plan.optional:
            absent = fold(()) == want
            return lambda row: absent if (v := read(row)) is None else test(v) == want
        return lambda row: test(read(row)) == want

    def to_wire(self) -> dict[str, Any]:
        return {
            "kind": "expr",
            "field": self.field,
            "op": self.op.value,
            "rvalues": list(self.rvalues),
        }

    def __repr__(self) -> str:
        return f"Expr({self.field!r} {self.op.value} {list(self.rvalues)!r})"


class _Junction(Query):
    """``And`` / ``Or``: a fold — ``all`` / ``any`` — over child queries."""

    _fold: Callable[[Any], bool]

    def __init__(self, *children: Query):
        name = type(self).__name__
        if not children:
            raise QueryError(f"{name}() requires at least one child")
        for child in children:
            if not isinstance(child, Query):
                raise QueryError(
                    f"{name}() children must be Query nodes, got {child!r}"
                )
        self.children = children

    def compile(self, model: type[Model]) -> Callable[[Model], bool]:
        fold, preds = self._fold, [child.compile(model) for child in self.children]
        return lambda row: fold(pred(row) for pred in preds)

    def to_wire(self) -> dict[str, Any]:
        kind = type(self).__name__.lower()
        return {"kind": kind, "children": [c.to_wire() for c in self.children]}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.children))})"


class And(_Junction):
    """True when every child query matches."""

    _fold = staticmethod(all)


class Or(_Junction):
    """True when any child query matches."""

    _fold = staticmethod(any)


class Not(Query):
    """True when the child query does not match."""

    def __init__(self, child: Query):
        if not isinstance(child, Query):
            # Catch a malformed wire tree (e.g. {"kind": "not", "child":
            # null}) at parse time rather than AttributeError at match time.
            raise QueryError(f"Not() requires a Query child, got {child!r}")
        self.child = child

    def compile(self, model: type[Model]) -> Callable[[Model], bool]:
        pred = self.child.compile(model)
        return lambda row: not pred(row)

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
