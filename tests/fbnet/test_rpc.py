"""Tests for the Thrift-like RPC service layer."""

import pytest

from repro import obs
from repro.common.errors import RpcError
from repro.fbnet.models import Region
from repro.fbnet.query import Expr, Op
from repro.fbnet.rpc import (
    ReadCache,
    RpcRequest,
    RpcResponse,
    ServiceReplica,
    decode_message,
    encode_message,
)


REQUEST = RpcRequest("read", "get", {"model": "Region", "fields": ["name"]})


def _with_args_body(body: bytes) -> bytes:
    """``REQUEST``'s header in front of some other args body."""
    head = REQUEST.to_wire()[: -len(encode_message(REQUEST.args)) - 4]
    return head + len(body).to_bytes(4, "big") + body


class TestWireFormat:
    def test_round_trip(self):
        payload = {"a": [1, 2, {"b": "c"}], "n": None}
        assert decode_message(encode_message(payload)) == payload
        # The body codec is canonical: one spelling per value.
        assert encode_message({"b": 1, "a": [2]}) == b'{"a":[2],"b":1}'

    def test_header_names_the_call_and_the_body_is_the_args(self):
        body = encode_message(REQUEST.args)
        assert REQUEST.to_wire() == (
            b"\x01\x04read\x03get" + len(body).to_bytes(4, "big") + body
        )
        ok = RpcResponse(ok=True, payload=[1]).to_wire()
        assert ok == b"\x01\x01\x00\x00\x00\x03[1]"
        failed = RpcResponse(ok=False, error="kaput").to_wire()
        assert failed == b"\x01\x00\x00\x00\x00\x05kaput"
        assert RpcResponse.from_wire(failed) == RpcResponse(ok=False, error="kaput")

    def test_truncated_header(self, store):
        replica = ServiceReplica("read-0", "na", "read", store)
        wire = REQUEST.to_wire()
        for cut in range(len(wire)):
            with pytest.raises(RpcError, match="truncated"):
                RpcRequest.from_wire(wire[:cut])
            with pytest.raises(RpcError, match="truncated"):
                replica.handle(wire[:cut])
        assert replica.served == 0
        for response in (replica.handle(wire), RpcResponse(ok=False, error="é").to_wire()):
            for cut in range(len(response)):
                with pytest.raises(RpcError, match="truncated"):
                    RpcResponse.from_wire(response[:cut])

    def test_truncated_body(self):
        # A length that overruns the message, and one that stops short of it.
        for length in (3, 1):
            with pytest.raises(RpcError, match="truncated or overlong"):
                RpcRequest.from_wire(
                    b"\x01\x04read\x03get" + length.to_bytes(4, "big") + b"{}"
                )
            with pytest.raises(RpcError, match="truncated or overlong"):
                RpcResponse.from_wire(b"\x01\x01" + length.to_bytes(4, "big") + b"[]")

    def test_bad_version(self):
        for valid, revive in (
            (REQUEST.to_wire(), RpcRequest.from_wire),
            (RpcResponse(ok=True, payload=1).to_wire(), RpcResponse.from_wire),
        ):
            with pytest.raises(RpcError, match="version 9"):
                revive(b"\x09" + valid[1:])

    def test_bytes_that_are_not_text_or_json(self, store):
        replica = ServiceReplica("read-0", "na", "read", store)
        bad_header = b"\x01\x04re\xffd\x03get\x00\x00\x00\x02{}"
        for wire in (bad_header, _with_args_body(b"\xff{}"), _with_args_body(b"{")):
            with pytest.raises(RpcError, match="malformed"):
                RpcRequest.from_wire(wire)
            with pytest.raises(RpcError, match="malformed"):
                replica.handle(wire)
        for wire in (b"\x01\x01\x00\x00\x00\x01{", b"\x01\x07\x00\x00\x00\x00"):
            with pytest.raises(RpcError, match="malformed"):
                RpcResponse.from_wire(wire)
        # An error text is for people: shown with U+FFFD, still an RpcError.
        with pytest.raises(RpcError, match="kap\ufffdut"):
            RpcResponse.from_wire(b"\x01\x00\x00\x00\x00\x06kap\xffut").result()

    def test_non_object_body_rejected(self, store):
        wire = _with_args_body(b"[1,2]")
        with pytest.raises(RpcError, match="object"):
            RpcRequest.from_wire(wire)
        # ... and a replica refuses it as a bad request: it is not a
        # server-side TypeError to be answered with ok=False.
        for cache in (None, ReadCache(store)):
            obs.reset()
            replica = ServiceReplica("read-0", "na", "read", store, cache=cache)
            with pytest.raises(RpcError, match="object"):
                replica.handle(wire)
            failures = {
                series.labels["reason"]: series.value
                for series in obs.registry().series()
                if series.name == "rpc.failure"
            }
            assert failures == {"bad-request": 1}

    def test_request_round_trip(self):
        assert RpcRequest.from_wire(REQUEST.to_wire()) == REQUEST

    def test_response_result_raises_on_error(self):
        response = RpcResponse(ok=False, error="kaput")
        with pytest.raises(RpcError, match="kaput"):
            response.result()


class TestServiceReplica:
    def test_read_replica_serves_get(self, store):
        store.create(Region, name="r1")
        replica = ServiceReplica("read-0", "na", "read", store)
        request = RpcRequest(
            "read", "get",
            {"model": "Region", "fields": ["name"],
             "query": Expr("name", Op.EQUAL, "r1").to_wire()},
        )
        response = RpcResponse.from_wire(replica.handle(request.to_wire()))
        assert response.result()[0]["name"] == "r1"
        assert replica.served == 1

    def test_write_replica_creates(self, store):
        replica = ServiceReplica("write-0", "na", "write", store)
        request = RpcRequest(
            "write", "create_objects", {"specs": [["Region", {"name": "r1"}]]}
        )
        response = RpcResponse.from_wire(replica.handle(request.to_wire()))
        assert response.ok
        assert store.count(Region) == 1

    def test_ref_revival_through_json(self, store):
        replica = ServiceReplica("write-0", "na", "write", store)
        request = RpcRequest(
            "write", "create_objects",
            {"specs": [
                ["Region", {"name": "r1"}],
                ["Pop", {"name": "p1", "region": ["$ref", 0], "domain": "pop"}],
            ]},
        )
        # Full wire round-trip: tuples become lists and must be revived.
        request = RpcRequest.from_wire(request.to_wire())
        response = RpcResponse.from_wire(replica.handle(request.to_wire()))
        assert response.ok, response.error

    def test_crashed_replica_refuses(self, store):
        replica = ServiceReplica("read-0", "na", "read", store)
        replica.crash()
        with pytest.raises(RpcError, match="down"):
            replica.handle(RpcRequest("read", "schema").to_wire())
        replica.recover()
        assert RpcResponse.from_wire(
            replica.handle(RpcRequest("read", "schema").to_wire())
        ).ok

    def test_wrong_service_kind(self, store):
        replica = ServiceReplica("read-0", "na", "read", store)
        with pytest.raises(RpcError, match="read service"):
            replica.handle(RpcRequest("write", "create_objects", {}).to_wire())

    def test_dispatch_error_surfaced_in_response(self, store):
        replica = ServiceReplica("write-0", "na", "write", store)
        request = RpcRequest(
            "write", "create_objects",
            {"specs": [["Region", {"name": "r1"}], ["Region", {"name": "r1"}]]},
        )
        response = RpcResponse.from_wire(replica.handle(request.to_wire()))
        assert not response.ok
        assert "unique" in response.error
        assert store.count(Region) == 0  # transaction rolled back

    def test_unknown_method(self, store):
        replica = ServiceReplica("read-0", "na", "read", store)
        with pytest.raises(RpcError, match="no method"):
            replica.handle(RpcRequest("read", "nope").to_wire())

    def test_a_read_that_names_no_model_is_a_bad_request(self, store):
        for cache in (None, ReadCache(store)):
            replica = ServiceReplica("read-0", "na", "read", store, cache=cache)
            for method in ("get", "count"):
                with pytest.raises(RpcError, match="needs a model name"):
                    replica.handle(RpcRequest("read", method, {"query": None}).to_wire())

    def test_bad_kind_rejected(self, store):
        with pytest.raises(ValueError):
            ServiceReplica("x", "na", "admin", store)
