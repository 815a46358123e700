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
``None`` optionals take their default).  The wire is the stand-in the RPC
layer already uses for Thrift — canonical JSON keyed by field name
(:func:`repro.fbnet.rpc.encode_message`'s spelling) — and the struct is
checked wherever it crosses it: :meth:`SchemaRegistry.dumps` on the way
out, :meth:`SchemaRegistry.loads` on the way in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    "TStructRef",
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
    bounds a signed integer."""

    def __init__(self, name: str, admits: tuple[type, ...], bits: int = 0):
        self.name = name
        self.admits = admits
        self.bits = bits

    def check(self, value: Any, registry: SchemaRegistry) -> Any:
        kind = self.admits[0]
        if not isinstance(value, self.admits) or isinstance(value, bool) is not (kind is bool):
            raise _Wrong(f"expected {self.name}, got {type(value).__name__}")
        if self.bits and not -(1 << self.bits - 1) <= value < 1 << self.bits - 1:
            raise _Wrong(f"{value} out of {self.name} range")
        return value if isinstance(value, kind) else kind(value)


TBool = TType("bool", (bool,))
TI32 = TType("i32", (int,), 32)
TI64 = TType("i64", (int,), 64)
TDouble = TType("double", (float, int))
TString = TType("string", (str,))


class TList:
    """A homogeneous list of another schema type."""

    def __init__(self, element: TType | TList | TStructRef):
        self.element = element

    def check(self, value: Any, registry: SchemaRegistry) -> list[Any]:
        if not isinstance(value, list):
            raise _Wrong(f"expected list, got {type(value).__name__}")
        check = self.element.check
        items = []
        try:
            for index, item in enumerate(value):
                items.append(check(item, registry))
        except _Wrong as wrong:
            wrong.path = f"[{index}]{wrong.path}"
            raise
        return items


class TStructRef:
    """A reference to a named struct in the registry (allows recursion)."""

    def __init__(self, name: str):
        self.name = name

    def check(self, value: Any, registry: SchemaRegistry) -> dict[str, Any]:
        return registry.get(self.name).check(value, registry)


@dataclass(frozen=True)
class FieldDef:
    """One numbered struct field (``1: string name``)."""

    id: int
    name: str
    type: TType | TList | TStructRef
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

    def check(self, value: Any, registry: SchemaRegistry) -> dict[str, Any]:
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
                    seen[field.name] = field.type.check(item, registry)
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


class SchemaRegistry:
    """Named structs plus serialization entry points."""

    def __init__(self) -> None:
        self._by_name: dict[str, StructDef] = {}

    def define(self, name: str, fields: list[FieldDef]) -> StructDef:
        if name in self._by_name:
            raise ValueError(f"struct {name} already defined")
        struct_def = StructDef(name, fields)
        self._by_name[name] = struct_def
        return struct_def

    def get(self, name: str) -> StructDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigGenerationError(f"unknown struct {name!r}") from None

    def validate(self, struct_name: str, value: dict[str, Any]) -> dict[str, Any]:
        """Check ``value`` against ``struct_name``; returns it as a reader sees it."""
        try:
            return self.get(struct_name).check(value, self)
        except _Wrong as wrong:
            raise ConfigGenerationError(f"{struct_name}{wrong.path}: {wrong}") from None

    def dumps(self, struct_name: str, value: dict[str, Any]) -> bytes:
        """Check ``value`` and serialize it to the wire (canonical JSON)."""
        checked = self.validate(struct_name, value)
        return json.dumps(checked, separators=(",", ":"), sort_keys=True).encode()

    def loads(self, struct_name: str, wire: bytes) -> dict[str, Any]:
        """Deserialize from the wire; what arrives is checked like any value."""
        try:
            value = json.loads(wire.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigGenerationError(f"struct {struct_name}: malformed wire: {exc}") from None
        return self.validate(struct_name, value)


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
        FieldDef(5, "pifs", TList(TStructRef("PhysicalInterface")), default=[]),
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
        FieldDef(2, "entries", TList(TStructRef("AclEntry")), default=[]),
    ],
)

CONFIG_SCHEMA.define(
    "BgpConfig",
    [
        FieldDef(1, "local_asn", TI64, required=True),
        FieldDef(2, "router_id", TString, default=""),
        FieldDef(3, "neighbors", TList(TStructRef("BgpNeighbor")), default=[]),
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
        FieldDef(1, "aggs", TList(TStructRef("AggregatedInterface")), default=[]),
        FieldDef(2, "name", TString, required=True),
        FieldDef(3, "vendor", TString, required=True),
        FieldDef(4, "role", TString, default=""),
        FieldDef(5, "system", TStructRef("SystemConfig"), required=True),
        FieldDef(6, "bgp", TStructRef("BgpConfig")),
        FieldDef(7, "tunnels", TList(TStructRef("MplsTunnelConfig")), default=[]),
        FieldDef(8, "acls", TList(TStructRef("AclPolicy")), default=[]),
        FieldDef(9, "route_policies", TList(TStructRef("RoutePolicyConfig")), default=[]),
    ],
)
