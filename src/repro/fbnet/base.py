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

__all__ = ["Model", "ModelGroup", "ModelRegistry", "hashable", "model_registry"]


def hashable(value: Any) -> Any:
    """``value`` as the store's indexes and the read-sets key it — the one
    spelling both compare by, so a dependency matches what an index holds."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


class ModelGroup(Enum):
    """Which partition of FBNet a model belongs to (section 4.1.2)."""

    DESIRED = "desired"
    DERIVED = "derived"


class ModelRegistry:
    """All concrete FBNet models, keyed by class name.

    The registry also lazily computes the *reverse relation* map: for each
    model, the API-only reverse connections contributed by foreign keys
    pointing at it (paper footnote 2).

    Whatever is derived from the *set* of registered models — the reverse
    map, abstract names, :meth:`family`, the query planner's choice of
    index (:func:`repro.fbnet.query.plan`) — is remembered in :attr:`memo`
    and dropped when a model registers.  What a model's own declaration
    fixes lives on its :class:`ModelOptions` and never changes.
    """

    def __init__(self) -> None:
        self._models: dict[str, type[Model]] = {}
        #: Facts derived from the registered set.  Keys: a model class
        #: (its :meth:`family`), ``("abstract", name)``, ``("ancestry",
        #: name)``, ``"reverse"`` and ``("reverse", model)``, and the
        #: planner's ``(model, frozenset of field names)``.  :meth:`register` rebinds it to a fresh dict, so
        #: fill it through a local reference (``memo = registry.memo``): a
        #: value computed from the old set then lands in the old dict.
        self.memo: dict[Any, Any] = {}

    def register(self, model: type[Model]) -> None:
        name = model.__name__
        if name in self._models:
            raise ValueError(f"duplicate FBNet model name: {name}")
        self._models[name] = model
        self.memo = {}

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
        memo = self.memo
        found = self._models.get(name) or memo.get(("abstract", name))
        if found is not None:
            return found
        if name != "Model":  # the root base is not a queryable family
            for model in self._models.values():
                for klass in model.__mro__[1:]:
                    meta = getattr(klass, "_meta", None)
                    if meta is not None and meta.abstract and klass.__name__ == name:
                        memo["abstract", name] = klass
                        return klass
        raise KeyError(f"unknown FBNet model: {name}")

    def all(self) -> list[type[Model]]:
        return list(self._models.values())

    def family(self, model: type[Model]) -> tuple[type[Model], ...]:
        """The concrete models a read of ``model`` covers: itself when
        registered, and every registered subclass, in registration order."""
        memo = self.memo
        found = memo.get(model)
        if found is None:
            found = memo[model] = tuple(
                m for m in self._models.values() if issubclass(m, model)
            )
        return found

    def ancestry(self, name: str) -> tuple[str, ...]:
        """``name`` and the name of every model it inherits from, so a
        dependency recorded against an abstract base (``Device``) matches a
        record of a concrete subclass (``PeeringRouter``).  A name not
        (yet) registered is its own whole ancestry."""
        memo = self.memo
        found = memo.get(("ancestry", name))
        if found is None:
            lineage = self._models[name].__mro__ if name in self._models else ()
            found = memo["ancestry", name] = tuple(
                klass.__name__
                for klass in lineage
                if getattr(klass, "_meta", None) is not None and klass is not Model
            ) or (name,)
        return found

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
        FK to a base class accepts subclass instances.  The mapping is
        shared between callers: read it, do not change it.
        """
        memo = self.memo
        result = memo.get(("reverse", model))
        if result is None:
            by_target = memo.get("reverse")
            if by_target is None:
                by_target = memo["reverse"] = self._reverse_by_target()
            result = {}
            for klass in model.__mro__:
                if isinstance(klass, ModelMeta):
                    for name, entry in by_target.get(klass.__name__, {}).items():
                        result.setdefault(name, entry)
            memo["reverse", model] = result  # stored whole: tasks read it
        return result

    def _reverse_by_target(self) -> dict[str, dict[str, tuple[type[Model], str]]]:
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
        return cache

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
    """Per-model metadata collected from the inner ``Meta`` class.

    Everything here is fixed by the model's own declaration and resolved
    once, at class creation; the store's read, write and replay paths
    consume it as is.
    """

    def __init__(
        self,
        model_name: str,
        fields: dict[str, Field],
        group: ModelGroup | None,
        abstract: bool,
        unique_together: tuple[tuple[str, ...], ...],
        family_root: type[Model],
    ):
        self.model_name = model_name
        self.fields = fields
        self.group = group
        self.abstract = abstract
        self.unique_together = unique_together
        #: The topmost abstract ancestor (the model itself when it has
        #: none): the scope of its unique constraints, so that e.g. two
        #: device subclasses cannot share a device name.
        self.family_root = family_root
        self.field_names: tuple[str, ...] = tuple(fields)
        self.unique_fields: tuple[str, ...] = tuple(
            n for n, f in fields.items() if f.unique
        )
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

        root = cls
        for base in cls.__mro__[1:]:
            base_meta = getattr(base, "_meta", None)
            if base_meta is not None and base_meta.abstract and base is not Model:
                root = base

        cls._meta = ModelOptions(name, fields, group, abstract, unique_together, root)

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

        fields = type(self)._meta.fields
        if not kwargs.keys() <= fields.keys():
            raise ValidationError(
                f"{type(self).__name__}: unknown field(s) "
                f"{sorted(kwargs.keys() - fields.keys())}"
            )
        values = self.__dict__
        for name, field in fields.items():
            # What assigning the attribute does (``Field.__set__``), minus
            # the two dispatches per field.
            if name in kwargs:
                values[name] = field.clean(kwargs[name])
            elif field.has_default:
                values[name] = field.clean(field.get_default())
            elif field.null:
                values[name] = None
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
        return {name: self.__dict__.get(name) for name in type(self)._meta.field_names}

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
