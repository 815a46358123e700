"""The Thrift-like service layer over FBNet (paper section 4.3.2).

Both read and write APIs are exposed as language-independent RPCs.  The
wire format stands where Thrift does in the paper: clients marshal a
request, service replicas unmarshal it, execute against their local
store through the ORM-style APIs, and marshal the results back.  As in
a Thrift message, the *header* names the call and the body carries only
its arguments::

    request:  version | len service | len method | 4-byte length | args
    response: version | ok flag               | 4-byte length | body

(``len x`` is one length byte and then ``x``.)  The args are one
canonical-JSON object (:func:`encode_message`); a response body is the
payload's canonical JSON, or the error text when the flag is 0.  A
replica therefore learns service and method without parsing any JSON.

Failure semantics match section 4.3.3: a replica whose process has
"crashed" refuses requests, and the routing layer (in
:mod:`repro.fbnet.replication`) redirects to surviving replicas in the
same region, then to the nearest neighboring region.

On top of raw dispatch this module provides the **read front door**:
:class:`ReadCache`, a read-through cache keyed by a request's marshalled
args and holding the marshalled answer, invalidated precisely from the
store's change journal.  :class:`CachingReadService` plugs it into a
read :class:`ServiceReplica`; ``multi_get`` batches many reads into one
RPC, filling each distinct miss once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro import faults, obs
from repro.common.errors import ReplicaUnavailable, RpcError
from repro.fbnet.api import ReadApi, WriteApi
from repro.fbnet.changelog import ReadSet, ReadSetIndex
from repro.fbnet.query import Query
from repro.fbnet.store import ObjectStore

__all__ = [
    "CachingReadService",
    "ReadCache",
    "ReadService",
    "RpcRequest",
    "RpcResponse",
    "ServiceReplica",
    "WriteService",
    "decode_message",
    "encode_message",
]

_WIRE_VERSION = 1
_OK = bytes((_WIRE_VERSION, 1))


#: ``json.dumps`` builds an encoder per call once it is given options.
_canonical_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def encode_message(payload: Any) -> bytes:
    """Marshal a request's args or a response's payload: canonical JSON."""
    return _canonical_json(payload).encode()


def decode_message(body: bytes) -> Any:
    """Unmarshal a body produced by :func:`encode_message`."""
    try:
        return json.loads(body.decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise RpcError(f"malformed RPC body: {exc}") from None


def _decode_args(body: bytes) -> dict[str, Any]:
    args = decode_message(body)
    if not isinstance(args, dict):
        raise RpcError("RPC args must be an object")
    return args


def _frame(head: bytes, body: bytes) -> bytes:
    """``head``, then ``body`` behind its 4-byte length."""
    return b"".join((head, len(body).to_bytes(4, "big"), body))


def _unframe(wire: bytes, at: int) -> bytes:
    """The length-prefixed body at ``at``, which must end the message."""
    body = wire[at + 4 :]
    if len(wire) < at + 4 or int.from_bytes(wire[at : at + 4], "big") != len(body):
        raise RpcError(f"truncated or overlong RPC message ({len(wire)} bytes)")
    return body


def _parse_request(wire: bytes) -> tuple[str, str, bytes]:
    """``(service, method, args body)``, read from the header alone."""
    try:
        if wire[0] != _WIRE_VERSION:
            raise RpcError(f"unsupported RPC wire version {wire[0]}")
        method_at = 2 + wire[1]
        body_at = method_at + 1 + wire[method_at]
        service = wire[2:method_at].decode()
        method = wire[method_at + 1 : body_at].decode()
    except IndexError:
        raise RpcError("truncated RPC message header") from None
    except UnicodeDecodeError as exc:
        raise RpcError(f"malformed RPC request header: {exc}") from None
    return service, method, _unframe(wire, body_at)


@dataclass(frozen=True)
class RpcRequest:
    """A marshalled call: which service, which method, what arguments."""

    service: str  # "read" or "write"
    method: str
    args: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> bytes:
        service, method = self.service.encode(), self.method.encode()
        head = b"".join(
            (bytes((_WIRE_VERSION, len(service))), service, bytes((len(method),)), method)
        )
        return _frame(head, encode_message(self.args))

    @staticmethod
    def from_wire(wire: bytes) -> RpcRequest:
        service, method, body = _parse_request(wire)
        return RpcRequest(service=service, method=method, args=_decode_args(body))


@dataclass(frozen=True)
class RpcResponse:
    """A marshalled result or error."""

    ok: bool
    payload: Any = None
    error: str = ""

    def to_wire(self) -> bytes:
        body = encode_message(self.payload) if self.ok else self.error.encode()
        return _frame(bytes((_WIRE_VERSION, self.ok)), body)

    @staticmethod
    def from_wire(wire: bytes) -> RpcResponse:
        body = _unframe(wire, 2)  # at least six bytes, or it raised
        if wire[0] != _WIRE_VERSION:
            raise RpcError(f"unsupported RPC wire version {wire[0]}")
        if wire[1] == 1:
            return RpcResponse(ok=True, payload=decode_message(body))
        if wire[1] != 0:
            raise RpcError(f"malformed RPC response: ok flag {wire[1]}")
        # The text is for people: bytes that are not UTF-8 show as U+FFFD.
        return RpcResponse(ok=False, error=body.decode(errors="replace"))

    def result(self) -> Any:
        """Return the payload, raising :class:`RpcError` on failure."""
        if not self.ok:
            raise RpcError(self.error or "RPC failed")
        return self.payload


def _normalize_spec(spec: Any) -> tuple[str, list[str] | None, dict | None]:
    """One ``get`` spec → ``(model, fields, query wire)``.

    Accepts both the wire form (``{"model": ..., "fields": ..., "query":
    ...}``) and the in-process form (``(model, fields, query)`` with a
    live :class:`Query`), so clients and services share one code path.
    """
    if isinstance(spec, dict):
        model, fields, query = spec.get("model"), spec.get("fields"), spec.get("query")
    else:
        model, fields, query = spec
    if not isinstance(model, str):
        raise RpcError(f"read spec needs a model name, got {model!r}")
    if isinstance(query, Query):
        query = query.to_wire()
    return model, list(fields) if fields is not None else None, query


class ReadService:
    """Dispatches read-API RPC methods against a store."""

    def __init__(self, store: ObjectStore):
        self._api = ReadApi(store)

    def _get(self, spec: Any) -> list[dict[str, Any]]:
        model, fields, query_wire = _normalize_spec(spec)
        return self._api.get(model, fields, Query.from_wire(query_wire))

    def dispatch(self, method: str, body: bytes) -> bytes:
        """Serve ``method`` for one marshalled args body; the answer body."""
        args = _decode_args(body)
        if method == "get":
            payload: Any = self._get(args)
        elif method == "multi_get":
            payload = [self._get(spec) for spec in args["specs"]]
        elif method == "count":
            model, _fields, query_wire = _normalize_spec(args)
            payload = self._api.count(model, Query.from_wire(query_wire))
        elif method == "schema":
            payload = self._api.schema()
        else:
            raise RpcError(f"read service has no method {method!r}")
        return encode_message(payload)


@dataclass
class _CacheEntry:
    """One cached answer and the evidence needed to invalidate it."""

    #: The answer as it goes on the wire (:func:`encode_message`'s bytes).
    body: bytes
    #: Everything the fill read; a journal record invalidates the entry
    #: iff ``read_set.matches(record)``.
    read_set: ReadSet


class ReadCache:
    """A read-through cache over one store's read API.

    Keying: ``(method, args body)`` — the canonical JSON a ``get`` or
    ``count`` carries on the wire (:meth:`cache_key`), so a marshalled
    request is looked up as it arrived.  An entry holds the marshalled
    answer: a hit decodes and encodes nothing, and no caller is ever
    handed an object the cache still holds.

    Invalidation is journal-driven and precise.  Each fill runs with
    read tracking *suspended and replaced* (the ambient read-set of any
    enclosing ``track_reads`` block is untouched — see
    :meth:`~repro.fbnet.store.ObjectStore._suspend_tracking`), capturing
    the fill's own :class:`ReadSet`.  Before every lookup the cache
    advances over the journal delta since its last position and evicts
    exactly the entries whose read-sets the new records match
    (``rpc.cache.invalidations``), looked up in the same
    :class:`~repro.fbnet.changelog.ReadSetIndex` the config generator
    follows the journal with.  Because replication applies records
    through the same journal, a cache over a replica store invalidates
    on apply with no extra plumbing.

    A fill that races a commit (records land between the fill's position
    snapshot and its admission) is *stale on arrival*: the entry is
    discarded (``rpc.cache.stale_evictions``) and the fill retried, so a
    cache-served answer is always byte-identical to a fresh store read.
    Entries never expire otherwise — no TTLs, no blanket flushes.
    """

    def __init__(self, store: ObjectStore, *, name: str = "rpc"):
        self._store = store
        self._api = ReadApi(store)
        self.name = name
        #: The cursor: how much of the store's journal has been replayed.
        self._position = store.journal_position
        self._entries: dict[tuple[str, bytes], _CacheEntry] = {}
        #: The entries' read-sets, inverted: journal record -> entry keys.
        self._read_sets = ReadSetIndex()

    @property
    def store(self) -> ObjectStore:
        return self._store

    def __len__(self) -> int:
        return len(self._entries)

    # -- keying --------------------------------------------------------

    @staticmethod
    def cache_key(
        method: str,
        model: str,
        fields: Sequence[str] | None,
        query_wire: dict | None,
    ) -> bytes:
        """The args body :class:`~repro.fbnet.replication.FBNetClient`
        sends for this ``get`` or ``count``, byte for byte."""
        args: dict[str, Any] = {"model": model, "query": query_wire}
        if method != "count":
            args["fields"] = list(fields) if fields is not None else None
        return encode_message(args)

    # -- invalidation --------------------------------------------------

    def advance(self) -> int:
        """Process the journal delta since the last advance.

        Every record committed (or replication-applied) since the cache
        last looked evicts the entries whose read-sets it matches.
        Returns the eviction count.
        """
        records = self._store.journal_since(self._position)
        evicted = 0
        for record in records:
            for key in sorted(self._read_sets.affected(record)):
                del self._entries[key]
                self._read_sets.discard(key)
                obs.counter("rpc.cache.invalidations", cache=self.name).inc()
                evicted += 1
        self._position += len(records)
        return evicted

    def clear(self) -> None:
        """Drop every entry (the one blanket flush, for tests/operators)."""
        self._entries.clear()
        self._read_sets.clear()

    # -- fills ---------------------------------------------------------

    def _compute(
        self,
        method: str,
        model: str,
        fields: Sequence[str] | None,
        query_wire: dict | None,
    ) -> tuple[bytes, ReadSet]:
        """Run one read against the store: its answer body and read-set.

        Tracking is suspended first: a fill inside a caller's
        ``track_reads`` block must not drag the cache's dependencies
        into the *ambient* read-set (the caller did not semantically
        perform these reads — the cache did).
        """
        read_set = ReadSet()
        with self._store._suspend_tracking(), self._store.track_reads(read_set):
            if method == "count":
                payload: Any = self._api.count(model, Query.from_wire(query_wire))
            else:
                payload = self._api.get(model, fields, Query.from_wire(query_wire))
        return encode_message(payload), read_set

    def _admit(
        self,
        key: tuple[str, bytes],
        body: bytes,
        read_set: ReadSet,
        position: int,
    ) -> bool:
        """Install a filled entry unless it is stale on arrival.

        Records committed after ``position`` (the fill's snapshot) that
        match the fill's read-set mean the answer may predate the
        mutation: count a stale eviction and refuse the entry.
        """
        for record in self._store.journal_since(position):
            if read_set.matches(record):
                obs.counter("rpc.cache.stale_evictions", cache=self.name).inc()
                return False
        self._entries[key] = _CacheEntry(body, read_set)
        self._read_sets.put(key, read_set)
        return True

    def _answer(self, method: str, specs: Sequence[Any]) -> list[bytes]:
        """One answer body per spec of a ``method`` batch, after an advance.

        Hits and misses are classified up front (each request counts
        once, so duplicate specs within one batch count one miss per
        occurrence but share a single fill); unique misses then fill and
        are admitted in first-request order.
        """
        normalized = [_normalize_spec(spec) for spec in specs]
        keys = [(method, self.cache_key(method, *spec)) for spec in normalized]
        body_by_key: dict[tuple[str, bytes], bytes] = {}
        fills: dict[tuple[str, bytes], tuple] = {}
        for key, spec in zip(keys, normalized):
            entry = self._entries.get(key)
            if entry is not None:
                obs.counter("rpc.cache.hits", cache=self.name).inc()
                body_by_key[key] = entry.body
            else:
                obs.counter("rpc.cache.misses", cache=self.name).inc()
                fills.setdefault(key, spec)
        for key, spec in fills.items():
            for _ in range(2):
                position = self._position
                body, read_set = self._compute(method, *spec)
                if self._admit(key, body, read_set, position):
                    break
                # Stale on arrival.  Twice over, mutations are landing faster
                # than fills complete: serve the (fresh) last answer uncached.
                self.advance()
            body_by_key[key] = body
        return [body_by_key[key] for key in keys]

    # -- the read-through API ------------------------------------------

    def serve(self, method: str, args: bytes) -> bytes:
        """The wire door: a marshalled ``get`` / ``count`` / ``multi_get``
        args body in, the marshalled answer out.

        A hit is one probe with the bytes as they arrived.  Only a miss
        decodes them, and it then asks under the canonical spelling
        (:meth:`cache_key`; a ``multi_get`` spec as the single ``get``
        asking the same), so args that arrived with reordered keys or a
        defaulted one left out still share the entry.
        """
        self.advance()
        if method == "multi_get":
            bodies = self._answer("get", _decode_args(args)["specs"])
            return b"[" + b",".join(bodies) + b"]"
        entry = self._entries.get((method, args))
        if entry is None:
            return self._answer(method, [_decode_args(args)])[0]
        obs.counter("rpc.cache.hits", cache=self.name).inc()
        return entry.body

    def get(
        self,
        model: str,
        fields: Sequence[str] | None = None,
        query: Query | dict | None = None,
    ) -> list[dict[str, Any]]:
        """Read-through ``ReadApi.get``: serve the cache, fill on miss."""
        self.advance()
        return decode_message(self._answer("get", [(model, fields, query)])[0])

    def count(self, model: str, query: Query | dict | None = None) -> int:
        """Read-through ``ReadApi.count``."""
        self.advance()
        return decode_message(self._answer("count", [(model, None, query)])[0])

    def multi_get(self, specs: Sequence[Any]) -> list[Any]:
        """Serve a batch of ``get`` specs, filling all misses together."""
        self.advance()
        return [decode_message(body) for body in self._answer("get", specs)]

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, float]:
        """The cache's ``rpc.cache.*`` counter values (0 when untouched)."""
        out: dict[str, float] = {}
        for event in ("hits", "misses", "invalidations", "stale_evictions"):
            series = obs.registry().get(f"rpc.cache.{event}", cache=self.name)
            out[event] = series.value if series is not None else 0.0
        out["entries"] = float(len(self._entries))
        return out


class CachingReadService(ReadService):
    """A :class:`ReadService` whose reads go through a :class:`ReadCache`.

    ``schema`` (registry-derived, store-independent) passes straight
    through; ``get``/``count``/``multi_get`` are served read-through.
    """

    def __init__(self, store: ObjectStore, cache: ReadCache | None = None):
        super().__init__(store)
        if cache is not None and cache.store is not store:
            raise RpcError("cache is bound to a different store")
        self.cache = cache if cache is not None else ReadCache(store)

    def dispatch(self, method: str, body: bytes) -> bytes:
        if method in ("get", "count", "multi_get"):
            return self.cache.serve(method, body)
        return super().dispatch(method, body)


class WriteService:
    """Dispatches write-API RPC methods against a store."""

    def __init__(self, store: ObjectStore):
        self._api = WriteApi(store)

    def dispatch(self, method: str, body: bytes) -> bytes:
        args = _decode_args(body)
        if method == "create_objects":
            specs = [
                (model_name, self._revive_refs(values))
                for model_name, values in args["specs"]
            ]
            payload: Any = self._api.create_objects(specs)
        elif method == "update_objects":
            updates = [
                (model_name, obj_id, values)
                for model_name, obj_id, values in args["updates"]
            ]
            payload = self._api.update_objects(updates)
        elif method == "delete_objects":
            targets = [(model_name, obj_id) for model_name, obj_id in args["targets"]]
            payload = self._api.delete_objects(targets)
        else:
            raise RpcError(f"write service has no method {method!r}")
        return encode_message(payload)

    @staticmethod
    def _revive_refs(values: dict[str, Any]) -> dict[str, Any]:
        # JSON turns the ("$ref", i) tuples into lists; restore them.
        revived: dict[str, Any] = {}
        for key, value in values.items():
            if (
                isinstance(value, list)
                and len(value) == 2
                and value[0] == "$ref"
                and isinstance(value[1], int)
            ):
                revived[key] = ("$ref", value[1])
            else:
                revived[key] = value
        return revived


class ServiceReplica:
    """One deployed read or write API service replica.

    Replicas are deployed per region, fronting that region's database
    (paper section 4.3.3).  A crashed replica refuses requests; the
    router redirects.
    """

    def __init__(
        self,
        name: str,
        region: str,
        kind: str,
        store: ObjectStore,
        cache: ReadCache | None = None,
    ):
        if kind not in ("read", "write"):
            raise ValueError(f"replica kind must be 'read' or 'write', not {kind!r}")
        if cache is not None and kind != "read":
            raise ValueError("only read replicas take a cache")
        self.name = name
        self.region = region
        self.kind = kind
        self.healthy = True
        self._store = store
        self.cache = cache
        self._service: ReadService | WriteService = self._build_service(store, cache)
        #: Requests served, for test/bench introspection.
        self.served = 0

    def _build_service(
        self, store: ObjectStore, cache: ReadCache | None
    ) -> ReadService | WriteService:
        if self.kind == "write":
            return WriteService(store)
        if cache is not None:
            return CachingReadService(store, cache)
        return ReadService(store)

    def retarget(self, store: ObjectStore, cache: ReadCache | None = None) -> None:
        """Point this replica at a different database (after failover).

        A cached read replica gets a fresh cache over the new store
        unless the caller passes one (regions share a cache across their
        replicas); stale entries from the old store never survive.
        """
        self._store = store
        if self.kind == "read" and self.cache is not None:
            cache = cache if cache is not None else ReadCache(store, name=self.cache.name)
        self.cache = cache
        self._service = self._build_service(store, cache)

    def crash(self) -> None:
        self.healthy = False

    def recover(self) -> None:
        self.healthy = True

    def _failed(self, method: str, reason: str) -> None:
        obs.counter(
            "rpc.failure", service=self.kind, method=method, reason=reason
        ).inc()

    def handle(self, wire_request: bytes) -> bytes:
        """Serve one marshalled request, returning a marshalled response."""
        if not self.healthy:
            obs.counter("rpc.refused", service=self.kind, region=self.region).inc()
            raise ReplicaUnavailable(f"replica {self.name} is down")
        service, method, body = _parse_request(wire_request)
        if faults.should_inject(
            "rpc.call", service=self.kind, method=method,
            replica=self.name, region=self.region,
        ):
            self._failed(method, "fault-injected")
            raise ReplicaUnavailable(
                f"replica {self.name}: injected transient RPC fault"
            )
        if service != self.kind:
            self._failed(method, "wrong-service")
            raise RpcError(
                f"replica {self.name} is a {self.kind} service, "
                f"got a {service} request"
            )
        self.served += 1
        obs.counter("rpc.call", service=self.kind, method=method).inc()
        with obs.timed("rpc.latency", service=self.kind, method=method):
            try:
                answer = self._service.dispatch(method, body)
            except RpcError:
                self._failed(method, "bad-request")
                raise
            except Exception as exc:  # surfaced to the caller, not swallowed
                self._failed(method, type(exc).__name__)
                return RpcResponse(
                    ok=False, error=f"{type(exc).__name__}: {exc}"
                ).to_wire()
        return _frame(_OK, answer)
