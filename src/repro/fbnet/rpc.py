"""The Thrift-like service layer over FBNet (paper section 4.3.2).

Both read and write APIs are exposed as language-independent RPCs.  The
wire format here is a typed, length-prefixed JSON encoding — structurally
equivalent to Thrift's role in the paper: clients marshal a request,
service replicas unmarshal it, execute against their local store through
the ORM-style APIs, and marshal the results back.

Failure semantics match section 4.3.3: a replica whose process has
"crashed" refuses requests, and the routing layer (in
:mod:`repro.fbnet.replication`) redirects to surviving replicas in the
same region, then to the nearest neighboring region.

On top of raw dispatch this module provides the **read front door**
(ROADMAP item 2): :class:`ReadCache` is a read-through cache layered
over the read API.  Every cache entry carries the
:class:`~repro.fbnet.changelog.ReadSet` captured while the entry's fill
ran, plus the journal position the fill observed; the store's
change journal then maps each committed mutation onto *exactly* the
entries whose read-sets it invalidates — no TTLs, no blanket flushes.
:class:`CachingReadService` plugs the cache into a read
:class:`ServiceReplica`, and ``multi_get`` batches many reads into one
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


def encode_message(payload: dict[str, Any]) -> bytes:
    """Marshal ``payload`` to the wire: a version byte + length + JSON body."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    header = _WIRE_VERSION.to_bytes(1, "big") + len(body).to_bytes(4, "big")
    return header + body


def decode_message(wire: bytes) -> dict[str, Any]:
    """Unmarshal a message produced by :func:`encode_message`."""
    if len(wire) < 5:
        raise RpcError("truncated RPC message header")
    version = wire[0]
    if version != _WIRE_VERSION:
        raise RpcError(f"unsupported RPC wire version {version}")
    length = int.from_bytes(wire[1:5], "big")
    body = wire[5 : 5 + length]
    if len(body) != length:
        raise RpcError(f"truncated RPC body: expected {length}, got {len(body)}")
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RpcError(f"malformed RPC body: {exc}") from None
    if not isinstance(payload, dict):
        raise RpcError("RPC body must be an object")
    return payload


@dataclass(frozen=True)
class RpcRequest:
    """A marshalled call: which service, which method, what arguments."""

    service: str  # "read" or "write"
    method: str
    args: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> bytes:
        return encode_message(
            {"service": self.service, "method": self.method, "args": self.args}
        )

    @staticmethod
    def from_wire(wire: bytes) -> RpcRequest:
        payload = decode_message(wire)
        try:
            return RpcRequest(
                service=payload["service"],
                method=payload["method"],
                args=payload.get("args", {}),
            )
        except KeyError as exc:
            raise RpcError(f"request missing key {exc}") from None


@dataclass(frozen=True)
class RpcResponse:
    """A marshalled result or error."""

    ok: bool
    payload: Any = None
    error: str = ""

    def to_wire(self) -> bytes:
        return encode_message(
            {"ok": self.ok, "payload": self.payload, "error": self.error}
        )

    @staticmethod
    def from_wire(wire: bytes) -> RpcResponse:
        data = decode_message(wire)
        return RpcResponse(
            ok=bool(data.get("ok")),
            payload=data.get("payload"),
            error=data.get("error", ""),
        )

    def result(self) -> Any:
        """Return the payload, raising :class:`RpcError` on failure."""
        if not self.ok:
            raise RpcError(self.error or "RPC failed")
        return self.payload


def _normalize_spec(spec: Any) -> tuple[str, tuple[str, ...] | None, dict | None]:
    """One multi-get spec → ``(model, fields, query wire)``.

    Accepts both the wire form (``{"model": ..., "fields": ..., "query":
    ...}``) and the in-process form (``(model, fields, query)`` with a
    live :class:`Query`), so clients and services share one code path.
    """
    if isinstance(spec, dict):
        model, fields, query = spec.get("model"), spec.get("fields"), spec.get("query")
    else:
        model, fields, query = spec
    if not isinstance(model, str):
        raise RpcError(f"multi_get spec needs a model name, got {model!r}")
    if isinstance(query, Query):
        query = query.to_wire()
    return model, tuple(fields) if fields is not None else None, query


class ReadService:
    """Dispatches read-API RPC methods against a store."""

    def __init__(self, store: ObjectStore):
        self._api = ReadApi(store)

    def dispatch(self, method: str, args: dict[str, Any]) -> Any:
        if method == "get":
            return self._api.get(
                args["model"],
                args.get("fields"),
                Query.from_wire(args.get("query")),
            )
        if method == "multi_get":
            return [
                self._api.get(model, fields, Query.from_wire(query))
                for model, fields, query in map(_normalize_spec, args["specs"])
            ]
        if method == "count":
            return self._api.count(args["model"], Query.from_wire(args.get("query")))
        if method == "schema":
            return self._api.schema()
        raise RpcError(f"read service has no method {method!r}")


@dataclass
class _CacheEntry:
    """One cached read result and the evidence needed to invalidate it."""

    payload: Any
    #: Everything the fill read; a journal record invalidates the entry
    #: iff ``read_set.matches(record)``.
    read_set: ReadSet
    #: Journal position observed when the fill started — the entry is
    #: consistent with exactly this journal prefix.
    position: int


class ReadCache:
    """A read-through cache over one store's read API (ROADMAP item 2).

    Keying: the canonical JSON of ``(method, model, fields, query
    wire)`` — two requests that marshal identically share one entry.

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
        self._entries: dict[str, _CacheEntry] = {}
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
    ) -> str:
        return json.dumps(
            [method, model, list(fields) if fields is not None else None, query_wire],
            sort_keys=True,
            separators=(",", ":"),
        )

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
        fields: tuple[str, ...] | None,
        query_wire: dict | None,
    ) -> tuple[Any, ReadSet]:
        """Run one read against the store, capturing its read-set.

        Tracking is suspended first: a fill inside a caller's
        ``track_reads`` block must not drag the cache's dependencies
        into the *ambient* read-set (the caller did not semantically
        perform these reads — the cache did).
        """
        read_set = ReadSet()
        with self._store._suspend_tracking():
            with self._store.track_reads(read_set):
                if method == "count":
                    payload: Any = self._api.count(model, Query.from_wire(query_wire))
                else:
                    payload = self._api.get(model, fields, Query.from_wire(query_wire))
        return payload, read_set

    def _admit(
        self,
        key: str,
        payload: Any,
        read_set: ReadSet,
        position: int,
    ) -> bool:
        """Install a filled entry unless it is stale on arrival.

        Records committed after ``position`` (the fill's snapshot) that
        match the fill's read-set mean the payload may predate the
        mutation: count a stale eviction and refuse the entry.
        """
        for record in self._store.journal_since(position):
            if read_set.matches(record):
                obs.counter("rpc.cache.stale_evictions", cache=self.name).inc()
                return False
        self._entries[key] = _CacheEntry(payload, read_set, position)
        self._read_sets.put(key, read_set)
        return True

    # -- the read-through API ------------------------------------------

    def get(
        self,
        model: str,
        fields: Sequence[str] | None = None,
        query: Query | dict | None = None,
    ) -> list[dict[str, Any]]:
        """Read-through ``ReadApi.get``: serve the cache, fill on miss."""
        return self._serve("get", *_normalize_spec((model, fields, query)))

    def count(self, model: str, query: Query | dict | None = None) -> int:
        """Read-through ``ReadApi.count``."""
        return self._serve("count", *_normalize_spec((model, None, query)))

    def _serve(
        self,
        method: str,
        model: str,
        fields: tuple[str, ...] | None,
        query_wire: dict | None,
    ) -> Any:
        self.advance()
        key = self.cache_key(method, model, fields, query_wire)
        entry = self._entries.get(key)
        if entry is not None:
            obs.counter("rpc.cache.hits", cache=self.name).inc()
            return entry.payload
        obs.counter("rpc.cache.misses", cache=self.name).inc()
        payload: Any = None
        for _ in range(2):
            position = self._position
            payload, read_set = self._compute(method, model, fields, query_wire)
            if self._admit(key, payload, read_set, position):
                return payload
            self.advance()
        # Two consecutive stale fills: mutations are landing faster than
        # fills complete — serve the (fresh) last computation uncached.
        return payload

    def multi_get(self, specs: Sequence[Any]) -> list[Any]:
        """Serve a batch of ``get`` specs, filling all misses together.

        Hits and misses are classified up front against the advanced
        cache (each request counts once, so duplicate specs within one
        batch count one miss per occurrence but share a single fill);
        unique misses then fill and are admitted in first-request order.
        """
        self.advance()
        normalized = [_normalize_spec(spec) for spec in specs]
        keys = [self.cache_key("get", *spec) for spec in normalized]
        payload_by_key: dict[str, Any] = {}
        fills: dict[str, tuple[str, tuple[str, ...] | None, dict | None]] = {}
        for key, spec in zip(keys, normalized):
            entry = self._entries.get(key)
            if entry is not None:
                obs.counter("rpc.cache.hits", cache=self.name).inc()
                payload_by_key[key] = entry.payload
            else:
                obs.counter("rpc.cache.misses", cache=self.name).inc()
                fills.setdefault(key, spec)
        for key, spec in fills.items():
            payload, read_set = self._compute("get", *spec)
            self._admit(key, payload, read_set, self._position)
            payload_by_key[key] = payload
        return [payload_by_key[key] for key in keys]

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, float]:
        """The cache's ``rpc.cache.*`` counter values (0 when untouched)."""
        out: dict[str, float] = {}
        for event in ("hits", "misses", "invalidations", "stale_evictions"):
            series = obs.registry().get(f"rpc.cache.{event}", cache=self.name)
            out[event] = series.value if series is not None else 0.0
        out["entries"] = float(len(self._entries))
        return out

    def positions(self) -> int:
        """The journal position the cache has advanced to."""
        return self._position


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

    def dispatch(self, method: str, args: dict[str, Any]) -> Any:
        if method == "get":
            return self.cache.get(
                args["model"], args.get("fields"), args.get("query")
            )
        if method == "multi_get":
            return self.cache.multi_get(args["specs"])
        if method == "count":
            return self.cache.count(args["model"], args.get("query"))
        return super().dispatch(method, args)


class WriteService:
    """Dispatches write-API RPC methods against a store."""

    def __init__(self, store: ObjectStore):
        self._api = WriteApi(store)

    def dispatch(self, method: str, args: dict[str, Any]) -> Any:
        if method == "create_objects":
            specs = [
                (model_name, self._revive_refs(values))
                for model_name, values in args["specs"]
            ]
            return self._api.create_objects(specs)
        if method == "update_objects":
            updates = [
                (model_name, obj_id, values)
                for model_name, obj_id, values in args["updates"]
            ]
            return self._api.update_objects(updates)
        if method == "delete_objects":
            targets = [(model_name, obj_id) for model_name, obj_id in args["targets"]]
            return self._api.delete_objects(targets)
        raise RpcError(f"write service has no method {method!r}")

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

    def handle(self, wire_request: bytes) -> bytes:
        """Serve one marshalled request, returning a marshalled response."""
        if not self.healthy:
            obs.counter("rpc.refused", service=self.kind, region=self.region).inc()
            raise ReplicaUnavailable(f"replica {self.name} is down")
        request = RpcRequest.from_wire(wire_request)
        if faults.should_inject(
            "rpc.call",
            service=self.kind,
            method=request.method,
            replica=self.name,
            region=self.region,
        ):
            obs.counter(
                "rpc.failure", service=self.kind, method=request.method,
                reason="fault-injected",
            ).inc()
            raise ReplicaUnavailable(
                f"replica {self.name}: injected transient RPC fault"
            )
        if request.service != self.kind:
            obs.counter(
                "rpc.failure", service=self.kind, method=request.method,
                reason="wrong-service",
            ).inc()
            raise RpcError(
                f"replica {self.name} is a {self.kind} service, "
                f"got a {request.service} request"
            )
        self.served += 1
        obs.counter("rpc.call", service=self.kind, method=request.method).inc()
        with obs.timed("rpc.latency", service=self.kind, method=request.method):
            try:
                payload = self._service.dispatch(request.method, request.args)
            except RpcError:
                obs.counter(
                    "rpc.failure", service=self.kind, method=request.method,
                    reason="bad-request",
                ).inc()
                raise
            except Exception as exc:  # surfaced to the caller, not swallowed
                obs.counter(
                    "rpc.failure", service=self.kind, method=request.method,
                    reason=type(exc).__name__,
                ).inc()
                return RpcResponse(
                    ok=False, error=f"{type(exc).__name__}: {exc}"
                ).to_wire()
        return RpcResponse(ok=True, payload=payload).to_wire()
