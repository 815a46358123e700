"""The per-row fast routes against the slow ones they stand in for.

* The address fields keep a string that is already ``ipaddress``'s
  canonical text and send everything else through ``ipaddress``: every
  spelling must come out as ``ipaddress`` alone makes it — the same stored
  string, or a ``ValidationError`` with the same message.
* ``decode_value`` looks an ``$enum`` up in a per-class map and falls back
  to calling the class: the answer (or the error) is ``Enum(value)``'s.
* ``ChangeRecord`` is slotted: still frozen, still ``replace``-able, and
  ``new_record`` (its slots set through their descriptors) builds the
  record ``ChangeRecord(...)`` builds.
* ``record_from_payload`` copies a row of scalars whole and decodes any
  other row value by value: either way it inverts ``record_payload``.
"""

from __future__ import annotations

import dataclasses
import ipaddress
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import DurabilityError, ValidationError
from repro.fbnet.durability import (
    decode_value,
    encode_value,
    record_from_payload,
    record_payload,
)
from repro.fbnet.fields import (
    V4AddressField,
    V4PrefixField,
    V6AddressField,
    V6PrefixField,
    format_address,
)
from repro.fbnet.models import ClusterGeneration, DeviceRole
from repro.fbnet.store import ChangeOp, ChangeRecord, new_record

FIELDS = {
    "V4PrefixField": V4PrefixField,
    "V6PrefixField": V6PrefixField,
    "V4AddressField": V4AddressField,
    "V6AddressField": V6AddressField,
}


def _field(kind: str):
    field = FIELDS[kind]()
    field.name = "prefix"
    return field


def reference(field, value) -> str:
    """What the field stored before it kept canonical text: ``ipaddress``
    parses every value.  A scoped address (``fe80::1%eth0``), which
    ``ipaddress`` takes, is refused: no reader of a stored address can
    place it on a network."""
    parse = ipaddress.ip_interface if "Prefix" in type(field).__name__ else ipaddress.ip_address
    try:
        parsed = parse(str(value))
    except ValueError as exc:
        raise ValidationError(f"{field._label()}: {value!r}: {exc}") from None
    if parsed.version != field.version:
        raise ValidationError(
            f"{field._label()}: {value!r} is IPv{parsed.version}, "
            f"expected IPv{field.version}"
        )
    if getattr(parsed, "scope_id", None) is not None:
        raise ValidationError(f"{field._label()}: {value!r} is a scoped address")
    return str(parsed)


def outcome(fn, *args):
    try:
        return "stored", fn(*args)
    except ValidationError as exc:
        return "refused", str(exc)


def assert_same_outcome(value) -> None:
    for kind in FIELDS:
        field = _field(kind)
        assert outcome(field.clean, value) == outcome(reference, field, value), (kind, value)


# -- canonical text is stored as ipaddress would store it ------------------

INTERFACE = {4: ipaddress.IPv4Interface, 6: ipaddress.IPv6Interface}
ADDRESS = {4: ipaddress.IPv4Address, 6: ipaddress.IPv6Address}


@settings(max_examples=300, deadline=None)
@given(
    v4=st.integers(0, 2**32 - 1),
    v6=st.integers(0, 2**128 - 1),
    p4=st.integers(0, 32),
    p6=st.integers(0, 128),
)
@example(v4=0, v6=0, p4=0, p6=0)
@example(v4=2**32 - 1, v6=2**128 - 1, p4=32, p6=128)
def test_canonical_text_is_stored_as_ipaddress_stores_it(v4, v6, p4, p6):
    for version, value, plen in ((4, v4, p4), (6, v6, p6)):
        Interface, Address = INTERFACE[version], ADDRESS[version]
        interface, address = str(Interface((value, plen))), str(Address(value))
        assert format_address(value, version) == address
        prefix_field = _field(f"V{version}PrefixField")
        address_field = _field(f"V{version}AddressField")
        assert prefix_field.clean(interface) == interface
        assert address_field.clean(address) == address
        # The typed objects still work, through ipaddress.
        assert prefix_field.clean(Interface((value, plen))) == interface
        assert address_field.clean(Address(value)) == address
        assert_same_outcome(interface)
        assert_same_outcome(address)


# -- every other spelling goes through ipaddress ---------------------------

FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _hextets(value: int) -> list[int]:
    return [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]


def _v6_spellings(value: int) -> list[str]:
    canonical = str(ipaddress.IPv6Address(value))
    hextets = _hextets(value)
    plain = [f"{h:x}" for h in hextets]
    spellings = [
        canonical,
        canonical.upper(),
        ":".join(plain),  # zero runs expanded
        ipaddress.IPv6Address(value).exploded,  # leading-zero hextets
        ":".join([f"{hextets[0]:04x}", *plain[1:]]),
        f"::ffff:{ipaddress.IPv4Address(value & 0xFFFFFFFF)}",
        f"::{ipaddress.IPv4Address(value & 0xFFFFFFFF)}",
        f"::ffff:{value & 0xFFFF:x}:{(value >> 16) & 0xFFFF:x}",
        ":".join(plain[:6]) + f":{ipaddress.IPv4Address(value & 0xFFFFFFFF)}",
        f"{canonical}%eth0",
    ]
    # Every run of two or more zero hextets compressed in turn, the longest
    # (leftmost on a tie) being the canonical one.
    for start in range(8):
        for end in range(start + 2, 9):
            if all(h == 0 for h in hextets[start:end]):
                spellings.append(":".join(plain[:start]) + "::" + ":".join(plain[end:]))
    return spellings


def _v4_spellings(value: int) -> list[str]:
    octets = [(value >> (8 * (3 - i))) & 0xFF for i in range(4)]
    canonical = ".".join(map(str, octets))
    return [
        canonical,
        ".".join(f"{o:03d}" for o in octets),  # leading-zero octets
        f"0{canonical}",
        f"{canonical}%eth0",
        f"{value}",
        f"{canonical}.0",
    ]


def _lengths(width: int, plen: int) -> list[str]:
    return [
        "",
        f"/{plen}",
        f"/0{plen}",
        f"/+{plen}",
        f"/-{plen}",
        f"/ {plen}",
        f"/{plen} ",
        f"/{plen}".translate(FULL_WIDTH),
        f"/{width + 1 + plen}",
        f"/{plen}/{plen}",
        "/",
        f"/{ipaddress.IPv4Network((0, plen)).netmask}" if width == 32 else f"/{plen:x}",
        f"/{ipaddress.IPv4Network((0, plen)).hostmask}" if width == 32 else "/0x1",
    ]


@settings(max_examples=150, deadline=None)
@given(
    value=st.one_of(
        st.integers(0, 2**128 - 1),
        # Zero runs of every shape, ties included.
        st.lists(st.sampled_from([0, 0, 0, 1, 0xFFFF, 0xDB8]), min_size=8, max_size=8).map(
            lambda hs: sum(h << (16 * (7 - i)) for i, h in enumerate(hs))
        ),
    ),
    plen=st.integers(0, 128),
)
@example(value=0x00010000000000020000000000030004, plen=64)  # a tie: 1:0:0:2:0:0:3:4
@example(value=0x00010000000200000000000000030004, plen=127)
@example(value=0xFFFF01020304, plen=96)  # ::ffff:1.2.3.4
@example(value=0x01020304, plen=128)  # ::1.2.3.4
def test_every_spelling_is_stored_or_refused_as_ipaddress_would(value, plen):
    v4, p4 = value & 0xFFFFFFFF, plen % 33
    for address in _v6_spellings(value):
        for length in _lengths(128, plen):
            assert_same_outcome(address + length)
    for address in _v4_spellings(v4):
        for length in _lengths(32, p4):
            assert_same_outcome(address + length)


@pytest.mark.parametrize(
    "value",
    [
        "2401:DB00::1/127",
        "2401:db00:0:0:0:0:0:1/127",
        "2401:db00::0001/127",
        "1:0:0:2::3:4/64",
        "1::2:0:0:3:4/64",
        "::ffff:1.2.3.4/96",
        "::ffff:102:304/96",
        "::1.2.3.4/128",
        "::102:304/128",
        "10.0.0.1/031",
        "10.0.0.1/+31",
        "10.0.0.1/３１",
        "10.0.0.1/255.255.255.254",
        "10.0.0.1/0.0.0.1",
        "10.0.0.1/33",
        "2401:db00::1/129",
        "10.0.0.1",
        "2401:db00::1",
        "fe80::1%eth0/64",
        "fe80::1%eth0",
        "010.0.0.1/31",
        "10.0.0.1 /31",
        " 10.0.0.1/31",
        "",
        "/",
        "not an address",
        "10.0.0.1/31\x00",
        "\ud800/31",
        "1.2.3.4/32",
        "::/0",
        "0.0.0.0/0",
    ],
)
def test_hand_picked_spellings(value):
    assert_same_outcome(value)


@pytest.mark.parametrize("value", [42, 3.5, b"10.0.0.1/31", ["10.0.0.1/31"], True])
def test_non_strings_still_go_through_ipaddress(value):
    assert_same_outcome(value)


def test_a_str_subclass_is_stored_as_plain_text():
    class Text(str):
        pass

    for kind, value in (("V6PrefixField", "2401:db00::1/127"), ("V4AddressField", "10.0.0.1")):
        stored = _field(kind).clean(Text(value))
        assert stored == value and type(stored) is str


# -- enums decode as Enum(value) decodes them -------------------------------


class Colour(Enum):
    RED = "red"
    CRIMSON = "red"  # an alias: decodes to RED, as Colour("red") does
    BLUE = 2
    GREEN = (1, 2)
    NONE = None
    LISTED = [3]  # unhashable: only calling the class finds it


class Lenient(Enum):
    LOW = "low"
    HIGH = "high"

    @classmethod
    def _missing_(cls, value):
        if isinstance(value, str) and value.strip().lower() in ("low", "high"):
            return cls(value.strip().lower())
        return None


def enum_outcome(fn, *args):
    try:
        return "member", fn(*args)
    except ValueError as exc:
        return "refused", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    cls=st.sampled_from([Colour, Lenient]),
    value=st.one_of(
        st.sampled_from(["red", 2, 2.0, True, None, "low", " HIGH ", "Low", "blue", [3]]),
        st.text(max_size=6),
        st.integers(-3, 3),
        st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    ),
)
def test_enum_decodes_as_enum_of_value(cls, value):
    wire = {"$enum": f"{cls.__module__}:{cls.__qualname__}", "$value": encode_value(value)}
    assert enum_outcome(decode_value, wire) == enum_outcome(cls, value)


def test_enum_alias_and_tuple_values_round_trip():
    for member in (Colour.RED, Colour.CRIMSON, Colour.BLUE, Colour.NONE, Colour.LISTED, Lenient.HIGH):
        assert decode_value(encode_value(member)) is member
    # A tuple value crosses the wire as a JSON list: unhashable, so the map
    # misses and the class decides, as it always did.
    assert enum_outcome(decode_value, encode_value(Colour.GREEN)) == enum_outcome(Colour, [1, 2])


# -- ChangeRecord is slotted and still frozen --------------------------------


def test_change_record_is_frozen_and_replaceable():
    record = ChangeRecord(3, ChangeOp.UPDATE, "Region", 7, {"name": "r"}, ("name",), "chg-1")
    assert record == ChangeRecord(
        txn_id=3, op=ChangeOp.UPDATE, model="Region", obj_id=7,
        values={"name": "r"}, changed_fields=("name",), change_id="chg-1",
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.txn_id = 4
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    moved = dataclasses.replace(record, txn_id=0)
    assert moved.txn_id == 0 and moved.values is record.values
    assert dataclasses.replace(moved, txn_id=3) == record
    assert ChangeRecord(1, ChangeOp.CREATE, "Region", 1).values == {}


# -- new_record builds what ChangeRecord(...) builds -------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
#: What a row may hold beyond scalars: enum members, lists, and dicts whose
#: keys may look like the encoder's own ``$enum`` / ``$dict`` tags.
nested = st.recursive(
    st.one_of(scalars, st.sampled_from(list(ClusterGeneration) + list(DeviceRole))),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["$enum", "$value", "$dict", "k"]), children, max_size=3),
    ),
    max_leaves=8,
)
names = st.text(min_size=1, max_size=8)
record_fields = st.tuples(
    st.integers(1, 10**9),
    st.sampled_from(list(ChangeOp)),
    names,
    st.integers(1, 10**9),
    st.one_of(
        st.dictionaries(names, scalars, max_size=6),  # copied whole
        st.dictionaries(names, nested, max_size=6),  # decoded value by value
    ),
    st.lists(names, max_size=3).map(tuple),
    st.text(max_size=8),
)


def frozen_errors(record) -> list[str]:
    errors = []
    for attempt in (lambda: setattr(record, "txn_id", 0), lambda: delattr(record, "op")):
        with pytest.raises(dataclasses.FrozenInstanceError) as caught:
            attempt()
        errors.append(str(caught.value))
    return errors


@settings(max_examples=150, deadline=None)
@given(args=record_fields, txn_id=st.integers(1, 10**9))
def test_new_record_is_the_record_the_dataclass_builds(args, txn_id):
    made, built = new_record(*args), ChangeRecord(*args)
    assert type(made) is ChangeRecord
    assert made == built and repr(made) == repr(built)
    assert dataclasses.astuple(made) == dataclasses.astuple(built)
    assert made.values is built.values
    assert dataclasses.replace(made, txn_id=txn_id) == dataclasses.replace(built, txn_id=txn_id)
    assert frozen_errors(made) == frozen_errors(built)


@settings(max_examples=150, deadline=None)
@given(args=record_fields)
def test_record_from_payload_inverts_record_payload(args):
    record = ChangeRecord(*args)
    payload = record_payload(record)
    decoded = record_from_payload(payload)
    assert decoded == record
    # A row is copied, never taken over from the payload it was read from.
    assert decoded.values is not payload["values"]
    # Values that are not an object make a malformed frame, whatever the row held.
    payload["values"] = list(payload["values"].items())
    with pytest.raises(DurabilityError, match="values must be an object"):
        record_from_payload(payload)
