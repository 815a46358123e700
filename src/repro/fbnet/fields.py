"""Typed value fields and relationship fields for FBNet models.

Each field type validates and normalizes assigned values via
:meth:`Field.get_prep_value`, mirroring the custom Django fields of the
paper's Figure 6 (e.g. ``V6PrefixField`` rejects anything that is not a
valid IPv6 prefix).  Fields are descriptors: model instances store the
prepared value in ``instance.__dict__`` under the field name.

The address fields store ``ipaddress``'s canonical text.  A string that
already is that text (one ``inet_pton``, then :func:`format_address`
spells it back the same) is kept as it is; anything else is normalised,
or refused, by ``ipaddress`` — so the stored value and every error are
what ``ipaddress`` alone would give, save that a scoped address
(``fe80::1%eth0``) is refused.  :func:`prefix_interval` is the one reader
of that text as a network.
"""

from __future__ import annotations

import ipaddress
import re
import socket
import struct
from collections.abc import Callable, Sequence
from enum import Enum
from functools import cache
from typing import Any

from repro.common.errors import ValidationError

__all__ = [
    "ASNField",
    "BoolField",
    "CharField",
    "DateTimeField",
    "EnumField",
    "Field",
    "FloatField",
    "ForeignKey",
    "IntField",
    "JSONField",
    "MACAddressField",
    "OnDelete",
    "V4AddressField",
    "V4PrefixField",
    "V6AddressField",
    "V6PrefixField",
    "format_address",
    "prefix_interval",
]

#: Sentinel distinguishing "no default was given" from "default is None".
_UNSET = object()


class Field:
    """Base class for all FBNet value fields.

    Parameters
    ----------
    default:
        Value used when the constructor does not supply one.  May be a
        callable invoked per-instance (so mutable defaults are safe).
    null:
        Whether ``None`` is an acceptable stored value.
    unique:
        Whether the store enforces uniqueness of this field per model table.
    choices:
        Optional whitelist of allowed values.
    help_text:
        Human-readable description surfaced by model introspection.
    """

    def __init__(
        self,
        *,
        default: Any = _UNSET,
        null: bool = False,
        unique: bool = False,
        choices: Sequence[Any] | None = None,
        help_text: str = "",
    ):
        self._default = default
        self.null = null
        self.unique = unique
        self.choices = tuple(choices) if choices is not None else None
        self.help_text = help_text
        # Assigned by the Model metaclass:
        self.name: str = ""
        self.model: type | None = None

    # -- descriptor protocol -------------------------------------------------

    def __set_name__(self, owner: type, name: str) -> None:
        if not self.name:
            self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        return instance.__dict__.get(self.name)

    def __set__(self, instance: Any, value: Any) -> None:
        instance.__dict__[self.name] = self.clean(value)

    # -- validation ----------------------------------------------------------

    @property
    def has_default(self) -> bool:
        return self._default is not _UNSET

    def get_default(self) -> Any:
        if not self.has_default:
            return None
        if callable(self._default):
            return self._default()
        return self._default

    def clean(self, value: Any) -> Any:
        """Validate and normalize ``value``; raise ``ValidationError`` if bad."""
        if value is None:
            if self.null:
                return None
            raise ValidationError(f"{self._label()}: value may not be null")
        prepared = self.get_prep_value(value)
        if self.choices is not None and prepared not in self.choices:
            raise ValidationError(
                f"{self._label()}: {prepared!r} is not one of {list(self.choices)}"
            )
        return prepared

    def get_prep_value(self, value: Any) -> Any:
        """Normalize ``value`` for storage.  Subclasses override."""
        return value

    def _label(self) -> str:
        model = self.model.__name__ if self.model else "?"
        return f"{model}.{self.name}"

    def describe(self) -> dict[str, Any]:
        """Introspection record used by the RPC schema generator."""
        return {
            "name": self.name,
            "type": type(self).__name__,
            "null": self.null,
            "unique": self.unique,
            "choices": list(self.choices) if self.choices else None,
            "help_text": self.help_text,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._label()}>"


class CharField(Field):
    """A string field with an optional ``max_length``."""

    def __init__(self, *, max_length: int = 255, **kwargs: Any):
        super().__init__(**kwargs)
        self.max_length = max_length

    def get_prep_value(self, value: Any) -> str:
        if not isinstance(value, str):
            raise ValidationError(f"{self._label()}: expected str, got {type(value).__name__}")
        if len(value) > self.max_length:
            raise ValidationError(
                f"{self._label()}: length {len(value)} exceeds max_length {self.max_length}"
            )
        return value


class IntField(Field):
    """An integer field with optional bounds."""

    def __init__(
        self,
        *,
        min_value: int | None = None,
        max_value: int | None = None,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        self.min_value = min_value
        self.max_value = max_value

    def get_prep_value(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{self._label()}: expected int, got {type(value).__name__}")
        if self.min_value is not None and value < self.min_value:
            raise ValidationError(f"{self._label()}: {value} < min {self.min_value}")
        if self.max_value is not None and value > self.max_value:
            raise ValidationError(f"{self._label()}: {value} > max {self.max_value}")
        return value


class FloatField(Field):
    """A float field; ints are accepted and coerced."""

    def get_prep_value(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{self._label()}: expected float, got {type(value).__name__}")
        return float(value)


class BoolField(Field):
    """A strict boolean field (no truthy coercion)."""

    def get_prep_value(self, value: Any) -> bool:
        if not isinstance(value, bool):
            raise ValidationError(f"{self._label()}: expected bool, got {type(value).__name__}")
        return value


class DateTimeField(FloatField):
    """A point in time, stored as seconds since the simulation epoch.

    The reproduction runs on a simulated clock (:mod:`repro.simulation.clock`)
    so timestamps are plain floats rather than ``datetime`` objects; this
    keeps every run deterministic.
    """

    def get_prep_value(self, value: Any) -> float:
        ts = super().get_prep_value(value)
        if ts < 0:
            raise ValidationError(f"{self._label()}: timestamp may not be negative")
        return ts


class EnumField(Field):
    """A field restricted to members of a :class:`enum.Enum`.

    Accepts either the enum member or its value and stores the member.
    """

    def __init__(self, enum_type: type[Enum], **kwargs: Any):
        super().__init__(**kwargs)
        self.enum_type = enum_type

    def get_prep_value(self, value: Any) -> Enum:
        if isinstance(value, self.enum_type):
            return value
        try:
            return self.enum_type(value)
        except ValueError:
            pass
        try:
            return self.enum_type[value]
        except (KeyError, TypeError):
            raise ValidationError(
                f"{self._label()}: {value!r} is not a {self.enum_type.__name__}"
            ) from None


_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")


class MACAddressField(Field):
    """A MAC address, normalized to lowercase colon-separated form."""

    def get_prep_value(self, value: Any) -> str:
        if not isinstance(value, str):
            raise ValidationError(f"{self._label()}: expected str, got {type(value).__name__}")
        normalized = value.strip().lower().replace("-", ":").replace(".", "")
        if ":" not in normalized and len(normalized) == 12:
            normalized = ":".join(normalized[i : i + 2] for i in range(0, 12, 2))
        if not _MAC_RE.match(normalized):
            raise ValidationError(f"{self._label()}: {value!r} is not a MAC address")
        return normalized


_FAMILY = {4: socket.AF_INET, 6: socket.AF_INET6}
_HEXTETS = struct.Struct(">8H")
#: Runs of two or more zero hextets in ``:%x:...:%x:`` text, longest first.
_ZERO_RUNS = tuple(":0" * n + ":" for n in range(8, 1, -1))


def format_address(value: int, version: int) -> str:
    """``str(ipaddress.ip_address(value))`` for an address of ``version``.

    >>> format_address(0x24010DB0000000000000000000000001, 6)
    '2401:db0::1'
    """
    if version == 4:
        return socket.inet_ntoa(value.to_bytes(4, "big"))
    text = "%x:%x:%x:%x:%x:%x:%x:%x" % _HEXTETS.unpack(value.to_bytes(16, "big"))
    # RFC 5952, as ipaddress does it: the longest run of zero hextets (the
    # leftmost of equal runs, which is what find returns) becomes "::".
    padded = f":{text}:"
    for run in _ZERO_RUNS:
        at = padded.find(run)
        if at >= 0:
            return f"{padded[1:at]}::{padded[at + len(run):-1]}"
    return text


def prefix_interval(prefix: str, version: int) -> tuple[int, int]:
    """The first and last address of the network a stored prefix names.

    >>> prefix_interval("10.0.0.1/31", 4)
    (167772160, 167772161)
    """
    address, _, length = prefix.partition("/")
    packed = socket.inet_pton(_FAMILY[version], address)
    size = 1 << (8 * len(packed) - int(length))
    first = int.from_bytes(packed, "big") & -size
    return first, first + size - 1


class _AddressField(Field):
    """Single-host IP address fields: canonical text is kept, the rest parsed."""

    version: int = 0
    _parse = staticmethod(ipaddress.ip_address)

    def _canonical(self, address: str) -> bool:
        """Whether ``address`` parses and is the one spelling :func:`format_address`
        gives its value, as ``ipaddress`` spells it.  Python 3.13 spells an
        IPv4-mapped address dotted, so those are left to ``ipaddress``."""
        try:
            packed = socket.inet_pton(_FAMILY[self.version], address)
        except (OSError, ValueError):
            return False
        if self.version == 6 and address.startswith("::ffff:"):
            return False
        return format_address(int.from_bytes(packed, "big"), self.version) == address

    def get_prep_value(self, value: Any) -> str:
        if value.__class__ is str and self._canonical(value):
            return value
        try:
            parsed = self._parse(str(value))
        except ValueError as exc:
            raise ValidationError(f"{self._label()}: {value!r}: {exc}") from None
        if parsed.version != self.version:
            raise ValidationError(
                f"{self._label()}: {value!r} is IPv{parsed.version}, "
                f"expected IPv{self.version}"
            )
        if getattr(parsed, "scope_id", None) is not None:  # a link on one host
            raise ValidationError(f"{self._label()}: {value!r} is a scoped address")
        return str(parsed)


class _PrefixField(_AddressField):
    """Shared behaviour for IPv4/IPv6 prefix fields.

    Values are stored as ``ip_interface`` strings, preserving host bits —
    the two ends of a /127 keep distinct addresses.  This matches the
    paper's ``V6PrefixField`` built on ``ipaddr.IPNetwork``, which also
    preserved the given address.
    """

    _parse = staticmethod(ipaddress.ip_interface)
    #: The canonical spellings of a prefix length: unsigned decimal in
    #: range, no leading zero.
    _lengths: frozenset[str] = frozenset()

    def _canonical(self, value: str) -> bool:
        address, _, length = value.partition("/")
        return length in self._lengths and super()._canonical(address)


class V4PrefixField(_PrefixField):
    """An IPv4 prefix in CIDR form, e.g. ``10.0.0.0/31``."""

    version = 4
    _lengths = frozenset(map(str, range(33)))


class V6PrefixField(_PrefixField):
    """An IPv6 prefix in CIDR form, e.g. ``2401:db00::/127``.

    This is the field from the paper's Figure 6: values that do not parse
    as IPv6 are rejected at assignment time.
    """

    version = 6
    _lengths = frozenset(map(str, range(129)))


class V4AddressField(_AddressField):
    """A single IPv4 address, e.g. a loopback."""

    version = 4


class V6AddressField(_AddressField):
    """A single IPv6 address, e.g. a loopback."""

    version = 6


class ASNField(IntField):
    """A BGP autonomous-system number (4-byte range)."""

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("min_value", 0)
        kwargs.setdefault("max_value", 2**32 - 1)
        super().__init__(**kwargs)


class JSONField(Field):
    """Free-form JSON-compatible data (dicts, lists, scalars).

    Used sparingly — the paper's principle (1) says models only contain the
    fields tools need — but some Derived models carry vendor blobs here.
    """

    _SCALARS = (str, int, float, bool, type(None))

    def get_prep_value(self, value: Any) -> Any:
        self._check(value, depth=0)
        return value

    def _check(self, value: Any, depth: int) -> None:
        if depth > 32:
            raise ValidationError(f"{self._label()}: nesting too deep")
        if isinstance(value, self._SCALARS):
            return
        if isinstance(value, list):
            for item in value:
                self._check(item, depth + 1)
            return
        if isinstance(value, dict):
            for key, item in value.items():
                if not isinstance(key, str):
                    raise ValidationError(f"{self._label()}: dict keys must be str")
                self._check(item, depth + 1)
            return
        raise ValidationError(
            f"{self._label()}: {type(value).__name__} is not JSON-compatible"
        )


class OnDelete(Enum):
    """What happens to referrers when a referenced object is deleted."""

    #: Delete the referring object too (paper: deleting a circuit deletes
    #: its prefixes).
    CASCADE = "cascade"
    #: Null out the relationship field (requires ``null=True``).
    SET_NULL = "set_null"
    #: Refuse the delete while referrers exist.
    PROTECT = "protect"


class ForeignKey(Field):
    """A typed reference to another FBNet model (a relationship field).

    The referenced model may be given as a class or by name (string) to
    allow forward references.  The store maintains the reverse index; the
    referenced model gains a *reverse connection* named ``related_name``
    (API-only, per the paper's footnote 2).
    """

    def __init__(
        self,
        to: type | str,
        *,
        related_name: str | None = None,
        on_delete: OnDelete = OnDelete.PROTECT,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        self._to = to
        self.related_name = related_name
        self.on_delete = on_delete
        if on_delete is OnDelete.SET_NULL and not self.null:
            raise ValueError("SET_NULL foreign key must be null=True")

    @property
    def to(self) -> type:
        """The referenced model class (resolving string forward refs)."""
        if isinstance(self._to, str):
            from repro.fbnet.base import model_registry

            self._to = model_registry.get(self._to)
        return self._to

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        """Resolve to the referenced object when attached to a store.

        On a free-floating (unsaved) object the raw id is returned; the
        ``<name>_id`` attribute always returns the raw id.
        """
        if instance is None:
            return self
        raw = instance.__dict__.get(self.name)
        store = instance.__dict__.get("_store")
        if raw is None or store is None:
            return raw
        return store.get(self.to, raw)

    def get_prep_value(self, value: Any) -> Any:
        if value.__class__ is int:  # a raw id: the common case
            return value
        if isinstance(value, _model_base()):
            if not isinstance(value, self.to):
                raise ValidationError(
                    f"{self._label()}: expected {self.to.__name__}, "
                    f"got {type(value).__name__}"
                )
            if value.id is None:
                raise ValidationError(
                    f"{self._label()}: referenced {type(value).__name__} is unsaved"
                )
            return value.id
        if isinstance(value, int):
            return value
        raise ValidationError(
            f"{self._label()}: expected a saved {self.to.__name__} or object id, "
            f"got {type(value).__name__}"
        )

    def describe(self) -> dict[str, Any]:
        record = super().describe()
        record["to"] = self.to.__name__
        record["related_name"] = self.related_name
        record["on_delete"] = self.on_delete.value
        return record


@cache
def _model_base() -> type:
    """``repro.fbnet.base.Model``, imported once (base imports this module)."""
    from repro.fbnet.base import Model

    return Model


def validator(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Mark a plain function as a reusable value validator (documentation aid)."""
    fn.__is_validator__ = True  # type: ignore[attr-defined]
    return fn
