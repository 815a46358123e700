"""Tests for the Thrift-like config data schema (paper Figure 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigGenerationError
from repro.configgen.schema import (
    CONFIG_SCHEMA,
    FieldDef,
    SchemaRegistry,
    StructDef,
    TBool,
    TDouble,
    TI32,
    TI64,
    TList,
    TString,
)


def minimal_device(**overrides):
    data = {
        "name": "psw1",
        "vendor": "vendor2",
        "system": {"hostname": "psw1"},
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_device_validates(self):
        normalized = CONFIG_SCHEMA.validate("Device", minimal_device())
        assert normalized["aggs"] == []
        assert normalized["system"]["syslog_collector"] == ""

    def test_missing_required_field(self):
        with pytest.raises(ConfigGenerationError, match="required"):
            CONFIG_SCHEMA.validate("Device", {"name": "x", "vendor": "v"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigGenerationError, match="unknown field"):
            CONFIG_SCHEMA.validate("Device", minimal_device(bogus=1))

    def test_type_mismatch(self):
        with pytest.raises(ConfigGenerationError, match="expected string"):
            CONFIG_SCHEMA.validate("Device", minimal_device(name=42))

    def test_nested_struct_validated(self):
        device = minimal_device(
            aggs=[{"name": "ae0", "number": "zero"}]  # number must be i32
        )
        with pytest.raises(ConfigGenerationError, match="aggs\\[0\\].number"):
            CONFIG_SCHEMA.validate("Device", device)

    def test_list_element_path_in_error(self):
        device = minimal_device(aggs=[{"name": "ae0", "number": 0, "pifs": [{}]}])
        with pytest.raises(ConfigGenerationError, match="pifs\\[0\\].name"):
            CONFIG_SCHEMA.validate("Device", device)

    def test_error_names_the_index_it_found(self):
        aggs = [{"name": f"ae{n}", "number": n, "pifs": [{"name": "et1"}, {"name": "et2"}]}
                for n in range(3)]
        aggs[2]["pifs"][1]["speed_mbps"] = "fast"
        with pytest.raises(
            ConfigGenerationError,
            match=r"^Device\.aggs\[2\]\.pifs\[1\]\.speed_mbps: expected i32, got str$",
        ):
            CONFIG_SCHEMA.validate("Device", minimal_device(aggs=aggs))

    def test_explicit_none_takes_the_default(self):
        device = minimal_device(
            role=None, bgp=None, aggs=[{"name": "ae0", "number": 0, "mtu": None, "pifs": None}]
        )
        normalized = CONFIG_SCHEMA.validate("Device", device)
        assert normalized["role"] == "" and normalized["bgp"] is None
        assert normalized["aggs"][0]["mtu"] == 9192
        assert normalized["aggs"][0]["pifs"] == []

    def test_explicit_none_for_a_required_field_is_missing(self):
        with pytest.raises(ConfigGenerationError, match="Device.name: required"):
            CONFIG_SCHEMA.validate("Device", minimal_device(name=None))

    def test_i32_range(self):
        with pytest.raises(ConfigGenerationError, match="i32 range"):
            CONFIG_SCHEMA.validate(
                "Device",
                minimal_device(aggs=[{"name": "ae0", "number": 2**31}]),
            )

    def test_bool_strictness(self):
        device = minimal_device(
            aggs=[{"name": "ae0", "number": 0, "lacp_fast": "yes"}]
        )
        with pytest.raises(ConfigGenerationError, match="expected bool"):
            CONFIG_SCHEMA.validate("Device", device)

    def test_unknown_struct(self):
        with pytest.raises(ConfigGenerationError, match="unknown struct"):
            CONFIG_SCHEMA.validate("NoSuchStruct", {})


class TestWire:
    def test_round_trip_minimal(self):
        wire = CONFIG_SCHEMA.dumps("Device", minimal_device())
        revived = CONFIG_SCHEMA.loads("Device", wire)
        assert revived["name"] == "psw1"
        assert revived["system"]["hostname"] == "psw1"

    def test_round_trip_full(self):
        device = minimal_device(
            role="psw",
            aggs=[
                {
                    "name": "ae0",
                    "number": 0,
                    "v6_prefix": "2401:db00::/127",
                    "pifs": [{"name": "et1/0", "speed_mbps": 10_000}],
                }
            ],
            bgp={
                "local_asn": 65101,
                "neighbors": [
                    {
                        "peer_ip": "2401:db00::1",
                        "peer_asn": 65501,
                        "local_ip": "2401:db00::",
                        "session_type": "ebgp",
                        "address_family": "v6",
                    }
                ],
            },
            tunnels=[{"name": "te-1", "destination": "2401:db00:f::1"}],
        )
        revived = CONFIG_SCHEMA.loads("Device", CONFIG_SCHEMA.dumps("Device", device))
        assert revived["aggs"][0]["pifs"][0]["name"] == "et1/0"
        assert revived["bgp"]["neighbors"][0]["peer_asn"] == 65501
        assert revived["tunnels"][0]["destination"] == "2401:db00:f::1"

    def test_absent_optionals_round_trip_as_defaults(self):
        wire = CONFIG_SCHEMA.dumps("Device", minimal_device())
        revived = CONFIG_SCHEMA.loads("Device", wire)
        assert revived["bgp"] is None
        assert revived["role"] == ""

    def test_trailing_bytes_rejected(self):
        wire = CONFIG_SCHEMA.dumps("Device", minimal_device())
        with pytest.raises(ConfigGenerationError, match="trailing|Extra data"):
            CONFIG_SCHEMA.loads("Device", wire + b"\x00")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda wire: wire[:-7],  # truncated
            lambda wire: wire.replace(b'"psw1"', b"17", 1),  # mistyped
            lambda wire: b"\xff" + wire,  # not text at all
            lambda wire: b"[" + wire + b"]",  # not a struct
        ],
    )
    def test_damaged_wire_rejected(self, damage):
        wire = CONFIG_SCHEMA.dumps("Device", minimal_device())
        with pytest.raises(ConfigGenerationError):
            CONFIG_SCHEMA.loads("Device", damage(wire))

    def test_loads_never_share_a_default_list(self):
        wire = CONFIG_SCHEMA.dumps("Device", minimal_device())
        first = CONFIG_SCHEMA.loads("Device", wire)
        first["tunnels"].append({"name": "te-1", "destination": "::1"})
        first["route_policies"].append({"name": "isp-in"})
        second = CONFIG_SCHEMA.loads("Device", wire)
        assert second["tunnels"] == [] and second["route_policies"] == []
        policy = CONFIG_SCHEMA.validate("RoutePolicyConfig", {"name": "isp-in"})
        policy["prefixes"].append("2a00:100::/32")
        assert CONFIG_SCHEMA.validate("RoutePolicyConfig", {"name": "isp-in"})["prefixes"] == []

    def test_wire_is_canonical(self):
        forward = {"name": "psw1", "vendor": "vendor2", "system": {"hostname": "psw1", "domain": "x"}}
        backward = {"system": {"domain": "x", "hostname": "psw1"}, "vendor": "vendor2", "name": "psw1"}
        assert list(forward) != list(backward)
        assert CONFIG_SCHEMA.dumps("Device", forward) == CONFIG_SCHEMA.dumps("Device", backward)

    @pytest.mark.parametrize(
        "send, refusal",
        [
            (lambda s: s.dumps("S", {"x": float("inf")}), "S.x: inf is not a finite double"),
            (lambda s: s.loads("S", b'{"x":NaN}'), "malformed wire: NaN is not JSON"),
            (lambda s: CONFIG_SCHEMA.loads(
                "Device", b'{"name":"a","name":"b","vendor":"v","system":{"hostname":"a"}}'
            ), "malformed wire: duplicate key 'name'"),
        ],
        ids=["infinity out", "nan in", "duplicate key in"],
    )
    def test_the_wire_is_strict_json(self, send, refusal):
        doubles = SchemaRegistry()
        doubles.define("S", [FieldDef(1, "x", TDouble)])
        with pytest.raises(ConfigGenerationError, match=refusal):
            send(doubles)

    def test_unicode_strings(self):
        device = minimal_device(role="日本語-ascii-mix")
        revived = CONFIG_SCHEMA.loads("Device", CONFIG_SCHEMA.dumps("Device", device))
        assert revived["role"] == "日本語-ascii-mix"


class TestRegistryDefinition:
    def test_duplicate_field_ids_rejected(self):
        registry = SchemaRegistry()
        with pytest.raises(ValueError, match="duplicate field ids"):
            registry.define(
                "Bad", [FieldDef(1, "a", TString), FieldDef(1, "b", TString)]
            )

    def test_duplicate_struct_rejected(self):
        registry = SchemaRegistry()
        registry.define("S", [FieldDef(1, "a", TString)])
        with pytest.raises(ValueError, match="already defined"):
            registry.define("S", [FieldDef(1, "a", TString)])

    def test_a_field_holds_the_struct_it_names(self):
        system = DEVICE.fields[4]
        assert system.name == "system" and system.type is CONFIG_SCHEMA.get("SystemConfig")
        assert DEVICE.fields[0].type.element is CONFIG_SCHEMA.get("AggregatedInterface")
        registry = SchemaRegistry()
        with pytest.raises(ValueError, match="struct S: unknown struct 'T'"):
            registry.define("S", [FieldDef(1, "ts", TList("T"))])
        registry.define("T", [FieldDef(1, "a", TString)])
        assert registry.define("S", [FieldDef(1, "ts", TList("T"))]).fields[0].type.element \
            is registry.get("T")

    def test_i64_for_asns(self):
        registry = SchemaRegistry()
        registry.define("S", [FieldDef(1, "asn", TI64, required=True)])
        wire = registry.dumps("S", {"asn": 4_200_000_000})
        assert registry.loads("S", wire)["asn"] == 4_200_000_000

    def test_double_arrives_a_float(self):
        registry = SchemaRegistry()
        registry.define("S", [FieldDef(1, "load", TDouble, required=True)])
        for given_as in (2, 2.0):
            for seen in (registry.validate("S", {"load": given_as}),
                         registry.loads("S", registry.dumps("S", {"load": given_as}))):
                assert seen == {"load": 2.0} and type(seen["load"]) is float
        with pytest.raises(ConfigGenerationError, match="S.load: expected double, got bool"):
            registry.validate("S", {"load": True})


# -- generated structs ---------------------------------------------------------

_SCALARS = {
    "string": st.text(max_size=6),
    "bool": st.booleans(),
    "i32": st.integers(-(2**31), 2**31 - 1),
    "i64": st.integers(-(2**63), 2**63 - 1),
}
#: A value of the wrong type for each kind of field.
_MISFIT = {"string": 42, "bool": "yes", "i32": "1", "i64": 1.5, "list": "ab", "struct": [1]}


def _kind(schema_type) -> str:
    if isinstance(schema_type, TList):
        return "list"
    return "struct" if isinstance(schema_type, StructDef) else schema_type.name


def _values(schema_type):
    if isinstance(schema_type, TList):
        return st.lists(_values(schema_type.element), max_size=3)
    if isinstance(schema_type, StructDef):
        return _structs(schema_type)
    return _SCALARS[schema_type.name]


def _structs(struct):
    """Valid values of ``struct``: optionals present, ``None`` or absent."""
    return st.fixed_dictionaries(
        {f.name: _values(f.type) for f in struct.fields if f.required},
        optional={f.name: st.none() | _values(f.type) for f in struct.fields if not f.required},
    )


def _struct_nodes(struct, value, path):
    """Every ``(struct, dict, path to it)`` inside a valid struct value."""
    yield struct, value, path
    for field in struct.fields:
        item, inner = value.get(field.name), field.type
        if item is None:
            continue
        if isinstance(inner, StructDef):
            yield from _struct_nodes(inner, item, f"{path}.{field.name}")
        elif isinstance(inner, TList) and isinstance(inner.element, StructDef):
            for index, element in enumerate(item):
                yield from _struct_nodes(inner.element, element, f"{path}.{field.name}[{index}]")


DEVICE = CONFIG_SCHEMA.get("Device")


class TestSchemaProperties:
    @settings(max_examples=60, deadline=None)
    @given(device=_structs(DEVICE))
    def test_one_traversal_both_sides_of_the_wire(self, device):
        seen = CONFIG_SCHEMA.validate("Device", device)
        assert CONFIG_SCHEMA.loads("Device", CONFIG_SCHEMA.dumps("Device", device)) == seen
        assert CONFIG_SCHEMA.validate("Device", seen) == seen
        assert list(seen) == [f.name for f in DEVICE.fields]

    @settings(max_examples=120, deadline=None)
    @given(device=_structs(DEVICE), data=st.data())
    def test_a_wrong_value_is_named_by_its_path(self, device, data):
        """Break one thing at a random depth: ``validate`` and ``dumps``
        both refuse it, naming the same place."""
        nodes = list(_struct_nodes(DEVICE, device, "Device"))
        struct, node, path = data.draw(st.sampled_from(nodes))
        fields = struct.fields
        bounded = [f for f in fields if getattr(f.type, "bits", 0)]
        breakage = data.draw(
            st.sampled_from(
                ["wrong type", "unknown key", "missing required"]
                + ["out of range"] * bool(bounded)
            )
        )
        if breakage == "unknown key":
            node["bogus"] = 1
            expected = f"{path}: unknown field(s) ['bogus'] for struct {struct.name}"
        elif breakage == "missing required":
            field = data.draw(st.sampled_from([f for f in fields if f.required]))
            del node[field.name]
            expected = f"{path}.{field.name}: required field missing"
        elif breakage == "wrong type":
            field = data.draw(st.sampled_from(fields))
            node[field.name] = _MISFIT[_kind(field.type)]
            expected = f"{path}.{field.name}: expected "
        else:
            field = data.draw(st.sampled_from(bounded))
            node[field.name] = 2 ** (field.type.bits - 1)
            expected = f"{path}.{field.name}: {node[field.name]} out of {field.type.name} range"
        with pytest.raises(ConfigGenerationError) as from_validate:
            CONFIG_SCHEMA.validate("Device", device)
        with pytest.raises(ConfigGenerationError) as from_dumps:
            CONFIG_SCHEMA.dumps("Device", device)
        assert str(from_validate.value) == str(from_dumps.value)
        assert str(from_validate.value).startswith(expected)

    simple_struct = st.fixed_dictionaries(
        {
            "name": st.text(max_size=40),
            "number": st.integers(min_value=-(2**31), max_value=2**31 - 1),
            "pifs": st.lists(
                st.fixed_dictionaries({"name": st.text(max_size=20)}), max_size=5
            ),
        }
    )

    @settings(max_examples=50, deadline=None)
    @given(agg=simple_struct)
    def test_agg_round_trip(self, agg):
        wire = CONFIG_SCHEMA.dumps("AggregatedInterface", agg)
        revived = CONFIG_SCHEMA.loads("AggregatedInterface", wire)
        assert revived["name"] == agg["name"]
        assert revived["number"] == agg["number"]
        assert [p["name"] for p in revived["pifs"]] == [
            p["name"] for p in agg["pifs"]
        ]


class TestAclAndPolicyStructs:
    def test_acl_policy_round_trip(self):
        device = minimal_device(
            acls=[
                {
                    "name": "edge-in",
                    "entries": [
                        {"sequence": 10, "action": "deny", "protocol": "tcp",
                         "port": 23},
                        {"sequence": 20, "action": "permit"},
                    ],
                }
            ],
        )
        revived = CONFIG_SCHEMA.loads("Device", CONFIG_SCHEMA.dumps("Device", device))
        entries = revived["acls"][0]["entries"]
        assert entries[0]["port"] == 23
        assert entries[1]["protocol"] == "any"  # default filled

    def test_route_policy_round_trip(self):
        device = minimal_device(
            route_policies=[
                {"name": "isp-in", "prefixes": ["2a00:100::/32"]}
            ],
        )
        revived = CONFIG_SCHEMA.loads("Device", CONFIG_SCHEMA.dumps("Device", device))
        assert revived["route_policies"][0]["prefixes"] == ["2a00:100::/32"]
        assert revived["route_policies"][0]["action"] == "permit"

    def test_neighbor_shutdown_and_policy_fields(self):
        device = minimal_device(
            bgp={
                "local_asn": 65000,
                "neighbors": [
                    {"peer_ip": "1::2", "peer_asn": 65001, "local_ip": "1::1",
                     "session_type": "ebgp", "address_family": "v6",
                     "shutdown": True, "import_policy": "isp-in"},
                ],
            },
        )
        revived = CONFIG_SCHEMA.loads("Device", CONFIG_SCHEMA.dumps("Device", device))
        neighbor = revived["bgp"]["neighbors"][0]
        assert neighbor["shutdown"] is True
        assert neighbor["import_policy"] == "isp-in"
