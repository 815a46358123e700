"""Unit tests for FBNet value and relationship fields."""

import pytest

from repro.common.errors import ValidationError
from repro.fbnet.fields import (
    ASNField,
    BoolField,
    CharField,
    DateTimeField,
    EnumField,
    Field,
    FloatField,
    ForeignKey,
    IntField,
    JSONField,
    MACAddressField,
    OnDelete,
    V4AddressField,
    V4PrefixField,
    V6AddressField,
    V6PrefixField,
)
from repro.fbnet.models import DeviceStatus, Region


def clean(field, value):
    field.name = "test_field"
    return field.clean(value)


class TestCharField:
    def test_accepts_string(self):
        assert clean(CharField(), "hello") == "hello"

    def test_rejects_non_string(self):
        with pytest.raises(ValidationError):
            clean(CharField(), 42)

    def test_enforces_max_length(self):
        with pytest.raises(ValidationError, match="max_length"):
            clean(CharField(max_length=3), "toolong")

    def test_exact_max_length_ok(self):
        assert clean(CharField(max_length=3), "abc") == "abc"


class TestIntField:
    def test_accepts_int(self):
        assert clean(IntField(), 5) == 5

    def test_rejects_bool(self):
        # bool is an int subclass; a strict field must not accept it.
        with pytest.raises(ValidationError):
            clean(IntField(), True)

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            clean(IntField(), 1.5)

    def test_bounds(self):
        field = IntField(min_value=0, max_value=10)
        assert clean(field, 0) == 0
        assert clean(field, 10) == 10
        with pytest.raises(ValidationError):
            clean(field, -1)
        with pytest.raises(ValidationError):
            clean(field, 11)


class TestFloatAndDateTime:
    def test_float_coerces_int(self):
        assert clean(FloatField(), 3) == 3.0

    def test_float_rejects_bool(self):
        with pytest.raises(ValidationError):
            clean(FloatField(), False)

    def test_datetime_rejects_negative(self):
        with pytest.raises(ValidationError):
            clean(DateTimeField(), -1.0)

    def test_datetime_accepts_zero(self):
        assert clean(DateTimeField(), 0.0) == 0.0


class TestBoolField:
    def test_strict(self):
        assert clean(BoolField(), True) is True
        with pytest.raises(ValidationError):
            clean(BoolField(), 1)


class TestEnumField:
    def test_accepts_member(self):
        field = EnumField(DeviceStatus)
        assert clean(field, DeviceStatus.PLANNED) is DeviceStatus.PLANNED

    def test_accepts_value(self):
        field = EnumField(DeviceStatus)
        assert clean(field, "production") is DeviceStatus.PRODUCTION

    def test_accepts_name(self):
        field = EnumField(DeviceStatus)
        assert clean(field, "PLANNED") is DeviceStatus.PLANNED

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            clean(EnumField(DeviceStatus), "nope")


class TestMACAddressField:
    def test_normalizes_case_and_separator(self):
        field = MACAddressField()
        assert clean(field, "AA-BB-CC-DD-EE-FF") == "aa:bb:cc:dd:ee:ff"

    def test_accepts_bare_hex(self):
        assert clean(MACAddressField(), "aabbccddeeff") == "aa:bb:cc:dd:ee:ff"

    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            clean(MACAddressField(), "aa:bb:cc")


class TestPrefixFields:
    def test_v6_prefix_valid(self):
        assert clean(V6PrefixField(), "2401:db00::1/127") == "2401:db00::1/127"

    def test_v6_prefix_preserves_host_bits(self):
        # The paper's ipaddr.IPNetwork kept the given address; so do we —
        # the two /127 endpoints must stay distinct.
        assert clean(V6PrefixField(), "2401:db00::1/127") != clean(
            V6PrefixField(), "2401:db00::/127"
        )

    def test_v6_prefix_rejects_v4(self):
        with pytest.raises(ValidationError, match="IPv4"):
            clean(V6PrefixField(), "10.0.0.0/31")

    def test_v6_prefix_rejects_garbage(self):
        with pytest.raises(ValidationError):
            clean(V6PrefixField(), "not-an-ip")

    def test_v4_prefix_valid(self):
        assert clean(V4PrefixField(), "10.0.0.1/31") == "10.0.0.1/31"

    def test_v4_prefix_rejects_v6(self):
        with pytest.raises(ValidationError, match="IPv6"):
            clean(V4PrefixField(), "2401:db00::/127")

    @pytest.mark.parametrize(
        "field, value",
        [(V6PrefixField, "fe80::1%eth0/64"), (V6PrefixField, "2401:db00::1%0/127"),
         (V6AddressField, "fe80::1%eth0")],
    )
    def test_scoped_address_refused(self, field, value):
        # ipaddress takes a zone id; no reader of a stored prefix can place
        # one on a network, so the field refuses it.
        with pytest.raises(ValidationError, match="scoped address"):
            clean(field(), value)


class TestAddressFields:
    def test_v4_address(self):
        assert clean(V4AddressField(), "10.1.2.3") == "10.1.2.3"

    def test_v4_address_rejects_prefix(self):
        with pytest.raises(ValidationError):
            clean(V4AddressField(), "10.1.2.0/24")

    def test_v6_address_normalizes(self):
        assert clean(V6AddressField(), "2401:DB00::1") == "2401:db00::1"


class TestASNField:
    def test_range(self):
        assert clean(ASNField(), 65000) == 65000
        assert clean(ASNField(), 2**32 - 1) == 2**32 - 1
        with pytest.raises(ValidationError):
            clean(ASNField(), 2**32)
        with pytest.raises(ValidationError):
            clean(ASNField(), -1)


class TestJSONField:
    def test_accepts_nested(self):
        value = {"a": [1, 2, {"b": None}], "c": "x"}
        assert clean(JSONField(), value) == value

    def test_rejects_non_string_keys(self):
        with pytest.raises(ValidationError):
            clean(JSONField(), {1: "x"})

    def test_rejects_objects(self):
        with pytest.raises(ValidationError):
            clean(JSONField(), {"x": object()})


class TestFieldBasics:
    def test_null_handling(self):
        assert clean(CharField(null=True), None) is None
        with pytest.raises(ValidationError, match="null"):
            clean(CharField(), None)

    def test_choices(self):
        field = CharField(choices=["a", "b"])
        assert clean(field, "a") == "a"
        with pytest.raises(ValidationError, match="not one of"):
            clean(field, "c")

    def test_callable_default(self):
        field = JSONField(default=dict)
        first, second = field.get_default(), field.get_default()
        assert first == {} and first is not second

    def test_describe(self):
        record = CharField(unique=True, help_text="hi").describe()
        assert record["type"] == "CharField"
        assert record["unique"] is True
        assert record["help_text"] == "hi"


class TestForeignKey:
    def test_set_null_requires_null(self):
        with pytest.raises(ValueError):
            ForeignKey(Region, on_delete=OnDelete.SET_NULL)

    def test_accepts_saved_object(self, store):
        region = store.create(Region, name="r1")
        fk = ForeignKey(Region)
        fk.name = "region"
        assert fk.clean(region) == region.id

    def test_rejects_unsaved_object(self):
        fk = ForeignKey(Region)
        fk.name = "region"
        with pytest.raises(ValidationError, match="unsaved"):
            fk.clean(Region(name="r2"))

    def test_rejects_wrong_type(self, store):
        from repro.fbnet.models import RackProfile

        profile = store.create(RackProfile, name="p", downlinks_per_rack=1)
        fk = ForeignKey(Region)
        fk.name = "region"
        with pytest.raises(ValidationError, match="expected Region"):
            fk.clean(profile)

    def test_describe_includes_target(self):
        fk = ForeignKey(Region, related_name="things")
        fk.name = "region"
        record = fk.describe()
        assert record["to"] == "Region"
        assert record["related_name"] == "things"
        assert record["on_delete"] == "protect"
