"""FBNet read and write APIs (paper section 4.2).

The read API has a standard declaration per object type —
``get_<ObjectType>(fields, query)`` — where ``fields`` lists local or
indirectly-referenced value fields (dotted paths through relationship
fields and reverse connections) and ``query`` is an expression tree from
:mod:`repro.fbnet.query`.

The write API provides high-level, multi-object operations, each wrapped
in a single transaction so no partial state is ever visible (section
4.3.2).  The portmap change-plan API of section 4.2.2 lives in
:mod:`repro.design.portmap` and is re-exported through :class:`WriteApi`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from typing import Any

from repro.common.errors import QueryError
from repro.fbnet.base import Model, model_registry
from repro.fbnet.query import Query, ensure_query, path_plan
from repro.fbnet.store import ObjectStore

__all__ = ["ReadApi", "WriteApi"]


class ReadApi:
    """Per-object-type read operations over an :class:`ObjectStore`.

    Besides the generic :meth:`get`, each registered model gets an
    auto-generated ``get_<ModelName>`` method (matching the paper's
    auto-generated Thrift APIs)::

        api.get_Linecard(fields=["slot", "device.name"], query=...)
    """

    def __init__(self, store: ObjectStore):
        self._store = store

    def get(
        self,
        model_name: str,
        fields: Sequence[str] | None = None,
        query: Query | None = None,
    ) -> list[dict[str, Any]]:
        """Fetch objects of ``model_name`` matching ``query``.

        Returns one dict per object containing ``id`` plus the requested
        ``fields``.  A dotted field that traverses a reverse connection
        yields a list of leaf values; a single-valued path yields a scalar.
        When ``fields`` is None, all local value fields are returned.
        """
        model = self._model(model_name)
        ensure_query(query)
        rows = self._store.filter(model, query)
        if fields is None:
            return [obj.to_dict() for obj in rows]
        result: list[dict[str, Any]] = []
        for concrete, group in groupby(rows, type):
            # One field of the row, one leaf or a list of them: what a path
            # is gets decided per (concrete model, path), not per row.
            project = [(path, path_plan(concrete, path).project) for path in fields]
            result.extend(
                {"id": obj.id, **{path: read(obj) for path, read in project}}
                for obj in group
            )
        return result

    def count(self, model_name: str, query: Query | None = None) -> int:
        """Count objects of ``model_name`` matching ``query``."""
        return self._store.count(self._model(model_name), query)

    def _model(self, model_name: str) -> type[Model]:
        # resolve() also accepts abstract family names ("Device"), which
        # the store can filter even though only concrete models register.
        try:
            return model_registry.resolve(model_name)
        except KeyError as exc:
            raise QueryError(str(exc)) from None

    def __getattr__(self, name: str) -> Any:
        if name.startswith("get_"):
            model_name = name[len("get_") :]
            try:
                model_registry.resolve(model_name)
                known = True
            except KeyError:
                known = False
            if known:

                def typed_get(
                    fields: Sequence[str] | None = None, query: Query | None = None
                ) -> list[dict[str, Any]]:
                    return self.get(model_name, fields, query)

                typed_get.__name__ = name
                typed_get.__doc__ = f"Auto-generated read API for {model_name}."
                return typed_get
        raise AttributeError(f"ReadApi has no attribute {name!r}")

    def schema(self) -> list[dict[str, Any]]:
        """Introspected schema of every model (the auto-generated IDL)."""
        return [model._meta.describe() for model in model_registry.all()]


class WriteApi:
    """High-level, transactional write operations (paper section 4.2.2)."""

    def __init__(self, store: ObjectStore):
        self._store = store

    def create_objects(
        self, specs: Sequence[tuple[str, dict[str, Any]]]
    ) -> list[int]:
        """Create many objects atomically; returns their new ids.

        ``specs`` is a list of ``(model_name, field_values)``.  Field
        values may reference earlier objects in the same call by index
        using the sentinel ``("$ref", i)``.
        """
        created: list[Model] = []
        with self._store.transaction():
            for model_name, values in specs:
                model = model_registry.get(model_name)
                resolved = {
                    key: self._deref(value, created) for key, value in values.items()
                }
                created.append(self._store.create(model, **resolved))
        return [obj.id for obj in created if obj.id is not None]

    @staticmethod
    def _deref(value: Any, created: list[Model]) -> Any:
        if isinstance(value, tuple) and len(value) == 2 and value[0] == "$ref":
            return created[value[1]]
        return value

    def update_objects(
        self, updates: Sequence[tuple[str, int, dict[str, Any]]]
    ) -> int:
        """Apply many field updates atomically; returns objects touched.

        ``updates`` is a list of ``(model_name, object_id, field_values)``.
        """
        with self._store.transaction():
            for model_name, obj_id, values in updates:
                model = model_registry.get(model_name)
                obj = self._store.get(model, obj_id)
                self._store.update(obj, **values)
        return len(updates)

    def delete_objects(self, targets: Sequence[tuple[str, int]]) -> int:
        """Delete many objects atomically (cascades apply); returns count."""
        with self._store.transaction():
            for model_name, obj_id in targets:
                model = model_registry.get(model_name)
                obj = self._store.get(model, obj_id)
                self._store.delete(obj)
        return len(targets)

    def apply_portmap_change_plan(self, plan: Any) -> Any:
        """Execute a portmap change plan (paper section 4.2.2).

        The plan object comes from :mod:`repro.design.portmap`; this write
        API carries out portmap creation, migration, update, and deletion
        while enforcing network design rules, atomically.
        """
        from repro.design.portmap import execute_change_plan

        with self._store.transaction():
            return execute_change_plan(self._store, plan)
