"""The FBNet model framework: metaclass, registry, and instances.

This is our stand-in for the Django ORM layer the paper builds FBNet on
(section 4.3.1).  A *model* is a Python class whose class-level
:class:`~repro.fbnet.fields.Field` attributes define the table schema; an
*object* is an instance of a model held by an
:class:`~repro.fbnet.store.ObjectStore`.

Models are partitioned into two groups (section 4.1.2):

* ``ModelGroup.DESIRED`` — the desired network state, written by design tools;
* ``ModelGroup.DERIVED`` — the observed network state, written by monitoring.

The registry supports the introspection used to auto-generate per-type read
APIs (section 4.3.2) and to reproduce Figure 13 (related models per model).
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from typing import Any, ClassVar

from repro.common.errors import ValidationError
from repro.common.util import camel_to_snake
from repro.fbnet.fields import Field, ForeignKey

__all__ = ["Model", "ModelGroup", "ModelRegistry", "model_registry"]


class ModelGroup(Enum):
    """Which partition of FBNet a model belongs to (section 4.1.2)."""

    DESIRED = "desired"
    DERIVED = "derived"


class ModelRegistry:
    """All concrete FBNet models, keyed by class name.

    The registry also lazily computes the *reverse relation* map: for each
    model, the API-only reverse connections contributed by foreign keys
    pointing at it (paper footnote 2).
    """

    def __init__(self) -> None:
        self._models: dict[str, type[Model]] = {}
        self._reverse_cache: dict[str, dict[str, tuple[type[Model], str]]] | None = None
        self._abstract_cache: dict[str, type[Model]] = {}

    def register(self, model: type[Model]) -> None:
        name = model.__name__
        if name in self._models:
            raise ValueError(f"duplicate FBNet model name: {name}")
        self._models[name] = model
        self._reverse_cache = None
        self._abstract_cache.clear()

    def get(self, name: str) -> type[Model]:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(f"unknown FBNet model: {name}") from None

    def resolve(self, name: str) -> type[Model]:
        """Like :meth:`get`, but also resolves *abstract* ancestor names.

        Only concrete models register, yet the store can filter a whole
        family through its abstract base (``store.filter(Device)``).
        ``resolve("Device")`` finds that base by walking the registered
        models' ancestries, so name-keyed read paths (the read API, the
        RPC wire) can query model families too.  Write paths keep using
        :meth:`get` — abstract names stay unwritable.
        """
        found = self._models.get(name) or self._abstract_cache.get(name)
        if found is not None:
            return found
        if name != "Model":  # the root base is not a queryable family
            for model in self._models.values():
                for klass in model.__mro__[1:]:
                    meta = getattr(klass, "_meta", None)
                    if meta is not None and meta.abstract and klass.__name__ == name:
                        self._abstract_cache[name] = klass
                        return klass
        raise KeyError(f"unknown FBNet model: {name}")

    def all(self) -> list[type[Model]]:
        return list(self._models.values())

    def by_group(self, group: ModelGroup) -> list[type[Model]]:
        return [m for m in self._models.values() if m._meta.group is group]

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __iter__(self) -> Iterator[type[Model]]:
        return iter(self._models.values())

    # -- reverse relations ----------------------------------------------------

    def reverse_relations(self, model: type[Model]) -> dict[str, tuple[type[Model], str]]:
        """Map of ``related_name`` -> (source model, fk field name) for ``model``.

        Includes relations pointing at any ancestor of ``model``, because a
        FK to a base class accepts subclass instances.
        """
        if self._reverse_cache is None:
            self._build_reverse_cache()
        assert self._reverse_cache is not None
        result: dict[str, tuple[type[Model], str]] = {}
        for klass in model.__mro__:
            if isinstance(klass, ModelMeta) and klass.__name__ in self._reverse_cache:
                for name, entry in self._reverse_cache[klass.__name__].items():
                    result.setdefault(name, entry)
        return result

    def _build_reverse_cache(self) -> None:
        cache: dict[str, dict[str, tuple[type[Model], str]]] = {}
        for model in self._models.values():
            for field in model._meta.fields.values():
                if not isinstance(field, ForeignKey):
                    continue
                target = field.to.__name__
                related = field.related_name or f"{camel_to_snake(model.__name__)}s"
                # "{model}" templating lets abstract bases declare reverse
                # names that stay distinct per concrete subclass (compare
                # Django's "%(class)s").
                if "{model}" in related:
                    related = related.format(model=camel_to_snake(model.__name__))
                cache.setdefault(target, {})
                if related in cache[target]:
                    other_model, other_field = cache[target][related]
                    if (other_model, other_field) != (model, field.name):
                        raise ValueError(
                            f"reverse name clash on {target}.{related}: "
                            f"{model.__name__}.{field.name} vs "
                            f"{other_model.__name__}.{other_field}"
                        )
                cache[target][related] = (model, field.name)
        self._reverse_cache = cache

    # -- Figure 13 introspection ----------------------------------------------

    def related_model_count(self, model: type[Model]) -> int:
        """Number of distinct models associated with ``model``.

        Counts both outgoing FK targets and models with FKs pointing here —
        the quantity plotted in the paper's Figure 13.
        """
        related: set[str] = set()
        for field in model._meta.fields.values():
            if isinstance(field, ForeignKey):
                related.add(field.to.__name__)
        for source_model, _field in self.reverse_relations(model).values():
            related.add(source_model.__name__)
        related.discard(model.__name__)
        return len(related)


#: The process-wide registry all concrete models register with.
model_registry = ModelRegistry()


class ModelOptions:
    """Per-model metadata collected from the inner ``Meta`` class."""

    def __init__(
        self,
        model_name: str,
        fields: dict[str, Field],
        group: ModelGroup | None,
        abstract: bool,
        unique_together: tuple[tuple[str, ...], ...],
    ):
        self.model_name = model_name
        self.fields = fields
        self.group = group
        self.abstract = abstract
        self.unique_together = unique_together
        # Partitioned views, computed once (hot path in query evaluation).
        self.fk_fields: dict[str, ForeignKey] = {
            n: f for n, f in fields.items() if isinstance(f, ForeignKey)
        }
        self.value_fields: dict[str, Field] = {
            n: f for n, f in fields.items() if not isinstance(f, ForeignKey)
        }

    def describe(self) -> dict[str, Any]:
        """Introspection record for the auto-generated RPC schema."""
        return {
            "model": self.model_name,
            "group": self.group.value if self.group else None,
            "fields": [f.describe() for f in self.fields.values()],
            "unique_together": [list(group) for group in self.unique_together],
        }


class ModelMeta(type):
    """Collects ``Field`` attributes into ``_meta`` and registers the model."""

    def __new__(
        mcls, name: str, bases: tuple[type, ...], namespace: dict[str, Any]
    ) -> ModelMeta:
        cls = super().__new__(mcls, name, bases, namespace)

        # Gather fields: inherited first (in MRO order), then own.
        fields: dict[str, Field] = {}
        for base in reversed(cls.__mro__[1:]):
            base_meta = getattr(base, "_meta", None)
            if isinstance(base_meta, ModelOptions):
                fields.update(base_meta.fields)
        for attr, value in namespace.items():
            if isinstance(value, Field):
                value.name = attr
                value.model = cls
                fields[attr] = value

        meta_cls = namespace.get("Meta")
        abstract = bool(getattr(meta_cls, "abstract", False))
        group = getattr(meta_cls, "group", None)
        if group is None and not abstract:
            # Inherit the group from the nearest concrete/abstract ancestor.
            for base in cls.__mro__[1:]:
                base_meta = getattr(base, "_meta", None)
                if isinstance(base_meta, ModelOptions) and base_meta.group:
                    group = base_meta.group
                    break
        unique_together = tuple(
            tuple(group_fields) for group_fields in getattr(meta_cls, "unique_together", ())
        )

        cls._meta = ModelOptions(name, fields, group, abstract, unique_together)

        if name != "Model" and not abstract:
            if group is None:
                raise TypeError(
                    f"concrete model {name} must declare Meta.group "
                    "(ModelGroup.DESIRED or ModelGroup.DERIVED)"
                )
            model_registry.register(cls)  # type: ignore[arg-type]
        return cls


class Model(metaclass=ModelMeta):
    """Base class of every FBNet object.

    Instances are created with keyword arguments for their fields::

        pif = PhysicalInterface(name="et1/1", linecard=lc, agg_interface=agg)

    Fields that declare ``null=True`` or a default may be omitted; all other
    fields are required.  Objects are free-floating until saved into an
    :class:`~repro.fbnet.store.ObjectStore`, which assigns ``id``.
    """

    _meta: ClassVar[ModelOptions]

    class Meta:
        abstract = True

    def __init__(self, **kwargs: Any):
        #: Store-assigned primary key; ``None`` while unsaved.
        self.id: int | None = None
        #: Back-reference to the owning store (set on save).
        self._store: Any = None

        meta = type(self)._meta
        unknown = set(kwargs) - set(meta.fields)
        if unknown:
            raise ValidationError(
                f"{type(self).__name__}: unknown field(s) {sorted(unknown)}"
            )
        for name, field in meta.fields.items():
            if name in kwargs:
                setattr(self, name, kwargs[name])
            elif field.has_default:
                setattr(self, name, field.get_default())
            elif field.null:
                self.__dict__[name] = None
            else:
                raise ValidationError(
                    f"{type(self).__name__}: missing required field {name!r}"
                )

    # -- attribute access helpers ---------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails.
        meta = type(self)._meta
        # ``<fk>_id`` raw-id access, Django style.
        if name.endswith("_id"):
            fk_name = name[: -len("_id")]
            if fk_name in meta.fk_fields:
                return self.__dict__.get(fk_name)
        # Reverse connections (API-only, resolved through the store).
        reverse = model_registry.reverse_relations(type(self))
        if name in reverse:
            if self._store is None or self.id is None:
                raise AttributeError(
                    f"{type(self).__name__}.{name}: reverse relations require "
                    "a saved object"
                )
            source_model, fk_field = reverse[name]
            return self._store.referrers(self, source_model, fk_field)
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def related(self, fk_name: str) -> Model | None:
        """Resolve forward FK ``fk_name`` to the referenced object."""
        meta = type(self)._meta
        if fk_name not in meta.fk_fields:
            raise AttributeError(f"{type(self).__name__}.{fk_name} is not a ForeignKey")
        raw = self.__dict__.get(fk_name)
        if raw is None:
            return None
        if self._store is None:
            raise ValidationError(
                f"{type(self).__name__}.{fk_name}: cannot resolve FK on an "
                "object not attached to a store"
            )
        return self._store._hop(meta.fk_fields[fk_name].to, raw)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Flat dict of field values (FKs as raw ids), plus ``id``."""
        data: dict[str, Any] = {"id": self.id}
        for name in type(self)._meta.fields:
            value = self.__dict__.get(name)
            if isinstance(value, Enum):
                value = value.value
            data[name] = value
        return data

    def clone_values(self) -> dict[str, Any]:
        """Raw field values suitable for reconstructing the object."""
        return {name: self.__dict__.get(name) for name in type(self)._meta.fields}

    def __repr__(self) -> str:
        label = self.__dict__.get("name")
        ident = f" name={label!r}" if isinstance(label, str) else ""
        return f"<{type(self).__name__} id={self.id}{ident}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        if type(self) is not type(other):
            return False
        if self.id is not None and other.id is not None:
            return self.id == other.id and self._store is other._store
        return self is other

    def __hash__(self) -> int:
        if self.id is not None:
            return hash((type(self).__name__, self.id, id(self._store)))
        return object.__hash__(self)
