"""A Thrift-like struct system for config data (paper Figure 8).

Config generation stores each device's dynamic, vendor-agnostic data "as a
Thrift object per device according to a pre-defined schema".  This module
provides the schema machinery — typed struct definitions with required /
optional fields and numeric field ids — and defines the concrete config
data schema used by the vendor templates (Figure 8's ``Device`` /
``AggregatedInterface`` / ``PhysicalInterface`` structs, extended with the
BGP, MPLS, and system sections real configs need).

The rules are walked by one traversal: every type has a ``check(value)``
that validates *and* returns the value as a reader sees it (absent and
``None`` optionals take their default).  A field names a struct by name and
holds that struct from its definition on, so a check never looks one up.
The wire is the stand-in the RPC layer already uses for Thrift — canonical,
strict JSON keyed by field name (:func:`repro.fbnet.rpc.encode_message`'s
spelling): :meth:`SchemaRegistry.dumps` is the check then the JSON,
:meth:`SchemaRegistry.loads` the JSON then the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import ConfigGenerationError

__all__ = [
    "CONFIG_SCHEMA",
    "FieldDef",
    "SchemaRegistry",
    "StructDef",
    "TBool",
    "TDouble",
    "TI32",
    "TI64",
    "TList",
    "TString",
]


# ---------------------------------------------------------------------------
# Type system
# ---------------------------------------------------------------------------


class _Wrong(Exception):
    """What is wrong with a value.  Each container prefixes its own segment
    to :attr:`path` on the way out, so ``Device.aggs[0].number`` is only
    ever built for a value that is wrong."""

    path = ""


class TType:
    """A scalar type: a value must be an instance of one of ``admits`` (a
    ``bool`` only ever of ``bool``) and a reader sees it as the first of
    them, so a double given as an ``int`` arrives a ``float``; ``bits``
    bounds a signed integer, and a float must be finite, as JSON's are."""

    def __init__(self, name: str, admits: tuple[type, ...], bits: int = 0):
        self.name = name
        self.admits = admits
        self.bits = bits

    def check(self, value: Any) -> Any:
        kind = self.admits[0]
        if not isinstance(value, self.admits) or isinstance(value, bool) is not (kind is bool):
            raise _Wrong(f"expected {self.name}, got {type(value).__name__}")
        if self.bits and not -(1 << self.bits - 1) <= value < 1 << self.bits - 1:
            raise _Wrong(f"{value} out of {self.name} range")
        if isinstance(value, float) and not math.isfinite(value):
            raise _Wrong(f"{value} is not a finite {self.name}")
        return value if isinstance(value, kind) else kind(value)


TBool = TType("bool", (bool,))
TI32 = TType("i32", (int,), 32)
TI64 = TType("i64", (int,), 64)
TDouble = TType("double", (float, int))
TString = TType("string", (str,))


class TList:
    """A homogeneous list of another schema type."""

    def __init__(self, element: SchemaType):
        self.element = element

    def check(self, value: Any) -> list[Any]:
        if not isinstance(value, list):
            raise _Wrong(f"expected list, got {type(value).__name__}")
        check = self.element.check
        items = []
        try:
            for index, item in enumerate(value):
                items.append(check(item))
        except _Wrong as wrong:
            wrong.path = f"[{index}]{wrong.path}"
            raise
        return items


@dataclass(frozen=True)
class FieldDef:
    """One numbered struct field (``1: string name``); a struct-typed field
    is written with the struct's name and holds the struct once defined."""

    id: int
    name: str
    type: SchemaType
    required: bool = False
    default: Any = None


class StructDef:
    """A named struct: ordered, numbered, typed fields.

    Values are plain dicts keyed by field name — like Thrift's dynamic
    (serialization-schema) representation.  Unknown keys are rejected so
    template data and schema cannot drift apart silently.
    """

    def __init__(self, name: str, fields: list[FieldDef]):
        ids = [f.id for f in fields]
        names = [f.name for f in fields]
        if len(set(ids)) != len(ids):
            raise ValueError(f"struct {name}: duplicate field ids")
        if len(set(names)) != len(names):
            raise ValueError(f"struct {name}: duplicate field names")
        self.name = name
        self.fields = sorted(fields, key=lambda f: f.id)
        self._names = frozenset(names)

    def check(self, value: Any) -> dict[str, Any]:
        """``value`` with every field present, in field-id order."""
        if not isinstance(value, dict):
            raise _Wrong(f"expected {self.name} struct (dict), got {type(value).__name__}")
        if not value.keys() <= self._names:
            unknown = sorted(set(value) - self._names)
            raise _Wrong(f"unknown field(s) {unknown} for struct {self.name}")
        seen: dict[str, Any] = {}
        try:
            for field in self.fields:
                item = value.get(field.name)
                if item is not None:
                    seen[field.name] = field.type.check(item)
                elif field.required:
                    raise _Wrong("required field missing")
                else:
                    # A list default is copied: readers may not share it.
                    default = field.default
                    seen[field.name] = list(default) if isinstance(default, list) else default
        except _Wrong as wrong:
            wrong.path = f".{field.name}{wrong.path}"
            raise
        return seen


#: A field's type as written: a scalar, a list, a struct, or a struct's name.
SchemaType = TType | TList | StructDef | str


class SchemaRegistry:
    """Named structs plus serialization entry points."""

    def __init__(self) -> None:
        self._by_name: dict[str, StructDef] = {}

    def define(self, name: str, fields: list[FieldDef]) -> StructDef:
        """Define struct ``name``; a struct its fields name must be defined."""
        if name in self._by_name:
            raise ValueError(f"struct {name} already defined")
        fields = [replace(f, type=self._resolve(name, f.type)) for f in fields]
        struct_def = StructDef(name, fields)
        self._by_name[name] = struct_def
        return struct_def

    def _resolve(self, name: str, schema_type: SchemaType) -> TType | TList | StructDef:
        if isinstance(schema_type, TList):
            return TList(self._resolve(name, schema_type.element))
        if not isinstance(schema_type, str):
            return schema_type
        if schema_type not in self._by_name:
            raise ValueError(f"struct {name}: unknown struct {schema_type!r}")
        return self._by_name[schema_type]

    def get(self, name: str) -> StructDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigGenerationError(f"unknown struct {name!r}") from None

    def validate(self, struct_name: str, value: dict[str, Any]) -> dict[str, Any]:
        """Check ``value`` against ``struct_name``; returns it as a reader sees it."""
        try:
            return self.get(struct_name).check(value)
        except _Wrong as wrong:
            raise ConfigGenerationError(f"{struct_name}{wrong.path}: {wrong}") from None

    def dumps(self, struct_name: str, value: dict[str, Any]) -> bytes:
        """Check ``value`` and serialize it to the wire (canonical JSON)."""
        checked = self.validate(struct_name, value)
        return json.dumps(checked, separators=(",", ":"), sort_keys=True).encode()

    def loads(self, struct_name: str, wire: bytes) -> dict[str, Any]:
        """Deserialize strict JSON (no repeated key, no ``NaN``) from the
        wire; what arrives is checked like any value."""
        try:
            value = json.loads(
                wire.decode(), object_pairs_hook=_unique_keys, parse_constant=_no_constant
            )
        except ValueError as exc:  # undecodable, not JSON, or not strict JSON
            raise ConfigGenerationError(f"struct {struct_name}: malformed wire: {exc}") from None
        return self.validate(struct_name, value)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [key for key, _item in pairs]
        raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
    return value


def _no_constant(literal: str) -> Any:
    raise ValueError(f"{literal} is not JSON")


# ---------------------------------------------------------------------------
# The concrete config data schema (Figure 8, extended)
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = SchemaRegistry()

CONFIG_SCHEMA.define(
    "PhysicalInterface",
    [
        FieldDef(1, "name", TString, required=True),
        FieldDef(2, "description", TString, default=""),
        FieldDef(3, "speed_mbps", TI32, default=10_000),
    ],
)

CONFIG_SCHEMA.define(
    "AggregatedInterface",
    [
        FieldDef(1, "name", TString, required=True),
        FieldDef(2, "number", TI32, required=True),
        FieldDef(3, "v4_prefix", TString),
        FieldDef(4, "v6_prefix", TString),
        FieldDef(5, "pifs", TList("PhysicalInterface"), default=[]),
        FieldDef(6, "mtu", TI32, default=9192),
        FieldDef(7, "description", TString, default=""),
        FieldDef(8, "lacp_fast", TBool, default=True),
    ],
)

CONFIG_SCHEMA.define(
    "BgpNeighbor",
    [
        FieldDef(1, "peer_ip", TString, required=True),
        FieldDef(2, "peer_asn", TI64, required=True),
        FieldDef(3, "local_ip", TString, required=True),
        FieldDef(4, "session_type", TString, required=True),  # "ibgp"/"ebgp"
        FieldDef(5, "address_family", TString, required=True),  # "v4"/"v6"
        FieldDef(6, "description", TString, default=""),
        # Drained devices keep their neighbor stanzas but shut them down
        # (the drain/undrain procedure of paper section 1).
        FieldDef(7, "shutdown", TBool, default=False),
        # Name of the import policy filtering this neighbor (section 8's
        # cherry-picked-prefixes case); empty = unfiltered.
        FieldDef(8, "import_policy", TString, default=""),
    ],
)

CONFIG_SCHEMA.define(
    "RoutePolicyConfig",
    [
        FieldDef(1, "name", TString, required=True),
        FieldDef(2, "prefixes", TList(TString), default=[]),
        FieldDef(3, "action", TString, default="permit"),
    ],
)

CONFIG_SCHEMA.define(
    "AclEntry",
    [
        FieldDef(1, "sequence", TI32, required=True),
        FieldDef(2, "action", TString, required=True),  # "permit"/"deny"
        FieldDef(3, "protocol", TString, default="any"),
        FieldDef(4, "source", TString, default="any"),
        FieldDef(5, "destination", TString, default="any"),
        FieldDef(6, "port", TI32),
        FieldDef(7, "description", TString, default=""),
    ],
)

CONFIG_SCHEMA.define(
    "AclPolicy",
    [
        FieldDef(1, "name", TString, required=True),
        FieldDef(2, "entries", TList("AclEntry"), default=[]),
    ],
)

CONFIG_SCHEMA.define(
    "BgpConfig",
    [
        FieldDef(1, "local_asn", TI64, required=True),
        FieldDef(2, "router_id", TString, default=""),
        FieldDef(3, "neighbors", TList("BgpNeighbor"), default=[]),
    ],
)

CONFIG_SCHEMA.define(
    "MplsTunnelConfig",
    [
        FieldDef(1, "name", TString, required=True),
        FieldDef(2, "destination", TString, required=True),
        FieldDef(3, "bandwidth_mbps", TI32, default=0),
    ],
)

CONFIG_SCHEMA.define(
    "SystemConfig",
    [
        FieldDef(1, "hostname", TString, required=True),
        FieldDef(2, "syslog_collector", TString, default=""),
        FieldDef(3, "loopback_v4", TString),
        FieldDef(4, "loopback_v6", TString),
        FieldDef(5, "domain", TString, default=""),
    ],
)

CONFIG_SCHEMA.define(
    "Device",
    [
        FieldDef(1, "aggs", TList("AggregatedInterface"), default=[]),
        FieldDef(2, "name", TString, required=True),
        FieldDef(3, "vendor", TString, required=True),
        FieldDef(4, "role", TString, default=""),
        FieldDef(5, "system", "SystemConfig", required=True),
        FieldDef(6, "bgp", "BgpConfig"),
        FieldDef(7, "tunnels", TList("MplsTunnelConfig"), default=[]),
        FieldDef(8, "acls", TList("AclPolicy"), default=[]),
        FieldDef(9, "route_policies", TList("RoutePolicyConfig"), default=[]),
    ],
)
