"""Durable FBNet: one write-ahead log and crash-consistent recovery.

The paper's FBNet sits on a durable MySQL master (section 4.3.1) — a
Robotron process can die and come back with the Desired state intact.
This module gives the in-process :class:`~repro.fbnet.store.ObjectStore`
the same property with one file under a durability root::

    wal-000000000000.log   # magic, a header frame, one frame per commit

* **Writer** (:class:`DurabilityEngine`) — every committed transaction is
  appended as one length-prefixed, CRC-checksummed frame *before* it
  becomes visible in memory.  The journal is the state (replaying it
  rebuilds tables, indexes and shadow values bit-identically), so the log
  is the only copy kept: a store attached late logs the journal it
  already has first, one frame per transaction, and leaves the same bytes
  as one attached from birth.
* **Reader** (:func:`recover_store`, surfaced as ``ObjectStore.recover`` /
  ``Robotron.recover``) — replays every frame through ``apply_record``.
  An invalid frame that nothing can follow is a torn tail and is
  truncated (that commit never became durable); an invalid frame with
  more log behind it is corruption and raises :class:`DurabilityError`
  without touching the file (:func:`scan_frames` states the rule).

Crash points are wired through :mod:`repro.faults` so seeded chaos runs
can kill the "process" at both interesting instants:

* ``wal.append_torn`` — power dies mid-frame: a prefix of the frame
  reaches disk (recovery must detect and truncate it; the commit is lost);
* ``wal.append_crash`` — the frame is durable but the process dies before
  the in-memory apply (recovery must replay it; the commit survives).

Both raise :class:`~repro.common.errors.ProcessCrash`, which test
harnesses treat as process death: discard the store, recover from disk.

A sharded store (:mod:`repro.fbnet.sharding`) writes the same file with
two additions: the header carries ``"shards": N`` and every commit frame
carries ``"homes"``, one shard index per record, beside ``"records"`` —
so recovery builds an N-shard store and gives each row the home it had
without re-deriving placement.  A plain store writes neither key.
The reader checks both: ``homes`` must be absent under a plain header
and, under a sharded one, as long as ``records`` with every index in
``[0, N)`` — anything else is a :class:`DurabilityError`.

Frame format: ``u32 body length | u32 crc32(body) | body``, with
canonical-JSON bodies (sorted keys, no whitespace) so identical state
encodes to identical bytes.
"""

from __future__ import annotations

import importlib
import json
import os
import zlib
from collections.abc import Iterable
from enum import Enum
from hashlib import sha256
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro import faults, obs
from repro.obs import flight
from repro.common.errors import DurabilityError, ProcessCrash
from repro.fbnet.store import ChangeOp, ChangeRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us lazily)
    from repro.fbnet.store import ObjectStore

__all__ = [
    "WAL_NAME",
    "DurabilityEngine",
    "decode_record",
    "encode_record",
    "decode_value",
    "encode_value",
    "frame",
    "recover_store",
    "scan_frames",
    "store_digest",
]

#: 8-byte magic prefix of the log file (version baked in).
WAL_MAGIC = b"FBWAL\x00\x00\x01"
#: The one file a durability root holds.
WAL_NAME = "wal-000000000000.log"

_FRAME_HEADER = 8  # u32 length + u32 crc32


# ---------------------------------------------------------------------------
# Wire encoding: values, records, frames
# ---------------------------------------------------------------------------


def _canonical(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, ASCII escapes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode()


def encode_value(value: Any) -> Any:
    """Lower a field value to a JSON-representable form, reversibly.

    Enum members (``EnumField`` stores the member, not the raw value)
    become ``{"$enum": "module:QualName", "$value": ...}``; a plain dict
    that could be mistaken for one of our tagged forms (any key starting
    with ``$``) is wrapped as ``{"$dict": {...}}`` so user data can never
    shadow the tags.
    """
    if isinstance(value, Enum):
        cls = type(value)
        return {
            "$enum": f"{cls.__module__}:{cls.__qualname__}",
            "$value": encode_value(value.value),
        }
    if isinstance(value, dict):
        encoded = {key: encode_value(item) for key, item in value.items()}
        if any(isinstance(key, str) and key.startswith("$") for key in value):
            return {"$dict": encoded}
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    return value


_enum_cache: dict[str, type[Enum]] = {}


def _resolve_enum(ref: str) -> type[Enum]:
    cached = _enum_cache.get(ref)
    if cached is not None:
        return cached
    module_name, _, qualname = ref.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise DurabilityError(f"cannot resolve enum {ref!r}: {exc}") from None
    if not (isinstance(target, type) and issubclass(target, Enum)):
        raise DurabilityError(f"{ref!r} is not an Enum type")
    _enum_cache[ref] = target
    return target


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        keys = set(value)
        if keys == {"$enum", "$value"}:
            return _resolve_enum(value["$enum"])(decode_value(value["$value"]))
        if keys == {"$dict"}:
            inner = value["$dict"]
            return {key: decode_value(item) for key, item in inner.items()}
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


#: What :func:`encode_value` and :func:`decode_value` return unchanged.
#: Most field values are one of these, so the per-row loops below test
#: for them in line and call out only for the rest.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_OPS = {op.value: op for op in ChangeOp}


def _encode_row(values: dict[str, Any]) -> dict[str, Any]:
    """:func:`encode_value` of a row's field values (names never start
    with ``$``, so the mapping itself needs no tag)."""
    return {
        k: v if v.__class__ in _SCALARS else encode_value(v)
        for k, v in values.items()
    }


def record_payload(record: ChangeRecord) -> dict[str, Any]:
    """The JSON-representable form of one journal record."""
    return {
        "txn_id": record.txn_id,
        "op": record.op.value,
        "model": record.model,
        "obj_id": record.obj_id,
        "values": _encode_row(record.values),
        "changed_fields": list(record.changed_fields),
        "change_id": record.change_id,
    }


def record_from_payload(payload: dict[str, Any]) -> ChangeRecord:
    try:
        return ChangeRecord(
            txn_id=payload["txn_id"],
            op=_OPS[payload["op"]],
            model=payload["model"],
            obj_id=payload["obj_id"],
            values={
                k: v if v.__class__ in _SCALARS else decode_value(v)
                for k, v in payload["values"].items()
            },
            changed_fields=tuple(payload["changed_fields"]),
            change_id=payload.get("change_id", ""),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DurabilityError(f"malformed change record payload: {exc}") from None


def encode_record(record: ChangeRecord) -> bytes:
    """Deterministic wire bytes for one :class:`ChangeRecord`."""
    return _canonical(record_payload(record))


def decode_record(data: bytes) -> ChangeRecord:
    """Invert :func:`encode_record`."""
    try:
        payload = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DurabilityError(f"malformed change record bytes: {exc}") from None
    if not isinstance(payload, dict):
        raise DurabilityError("change record bytes must encode an object")
    return record_from_payload(payload)


def frame(body: bytes) -> bytes:
    """Length-prefix and checksum ``body``: ``u32 len | u32 crc32 | body``."""
    header = len(body).to_bytes(4, "big") + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(
        4, "big"
    )
    return header + body


def scan_frames(data: bytes, offset: int = 0) -> tuple[list[bytes], int, bool]:
    """Walk frames in ``data`` starting at ``offset``.

    Returns ``(bodies, valid_end, torn)``: every complete, checksummed
    frame body in order; the offset just past the last valid frame; and
    whether a torn tail follows it.

    The torn-tail rule: an invalid frame is a torn tail only if nothing
    can follow it — its header is incomplete, or its declared extent
    reaches or passes the end of ``data``.  An invalid frame with more log
    behind it is corruption and raises :class:`DurabilityError`; treating
    it as a tail would truncate intact commits away.
    """
    bodies: list[bytes] = []
    position = offset
    total = len(data)
    while position < total:
        body_start = position + _FRAME_HEADER
        if body_start > total:
            return bodies, position, True
        end = body_start + int.from_bytes(data[position : position + 4], "big")
        crc = int.from_bytes(data[position + 4 : body_start], "big")
        body = data[body_start:end]
        if end > total or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            if end < total:
                raise DurabilityError(
                    f"damaged frame at byte {position} with {total - end} "
                    "more bytes of log behind it"
                )
            return bodies, position, True
        bodies.append(body)
        position = end
    return bodies, position, False


# ---------------------------------------------------------------------------
# Layout helpers
# ---------------------------------------------------------------------------


def _load_json_body(body: bytes, kind: str) -> dict[str, Any] | None:
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        return None
    return payload


def _refuse_old_layout(root: Path) -> None:
    if (root / "shards.json").exists():
        raise DurabilityError(
            f"{root} holds a shards.json: that is the pre-PR-14 sharded layout "
            "(one WAL root per shard plus an order log), which has no reader; "
            "a sharded store now logs to one root like a plain one"
        )
    stray = sorted(
        path.name
        for pattern in ("snap-*", "wal-*.log")
        for path in root.glob(pattern)
        if path.name != WAL_NAME
    )
    if stray:
        raise DurabilityError(
            f"{root} holds {', '.join(stray)}: that is the pre-PR-19 layout "
            "(snapshots and rotated segments), which has no reader; "
            f"a store now logs to the one file {WAL_NAME}"
        )


def _batch(store: ObjectStore, records: list[ChangeRecord]) -> dict[str, Any]:
    """The ``records`` entry of a commit frame — and, for a sharded store,
    the ``homes`` entry beside it."""
    payload: dict[str, Any] = {"records": [record_payload(r) for r in records]}
    if store.shard_count is not None:
        payload["homes"] = store._homes(records)
    return payload


def _read_batch(
    payload: dict[str, Any], shards: int | None, where: str
) -> Iterable[tuple[Any, ...]]:
    """Invert :func:`_batch`: ``(record payload, home)`` pairs — bare
    ``(record payload,)`` under a plain header, whose store takes no
    home — checked against the header's ``shards``."""
    records, homes = payload.get("records"), payload.get("homes")
    if not isinstance(records, list):
        raise DurabilityError(f"{where}: no record list")
    if shards is None:
        if homes is not None:
            raise DurabilityError(f"{where}: homes in a plain store's log")
        return zip(records)
    if (
        not isinstance(homes, list)
        or len(homes) != len(records)
        or not all(type(home) is int and 0 <= home < shards for home in homes)
    ):
        raise DurabilityError(
            f"{where}: needs one home shard in [0, {shards}) per record"
        )
    return zip(records, homes)


# ---------------------------------------------------------------------------
# The writer: WAL appends on a live store
# ---------------------------------------------------------------------------


class DurabilityEngine:
    """The durability sidecar of one :class:`ObjectStore`.

    Created through :meth:`ObjectStore.attach_durability` (a root with no
    log yet) or by :func:`recover_store` (reattach after recovery).  The
    store calls :meth:`log_commit` from ``_commit()`` *before* extending
    its in-memory journal — the WAL append is the durability point — and
    :meth:`log_applied` from ``apply_record()`` on the replication
    receive path.
    """

    def __init__(
        self,
        store: ObjectStore,
        root: str | Path,
        *,
        fsync: bool = False,
        _recovered: bool = False,
    ):
        self.store = store
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        _refuse_old_layout(self.root)
        #: fsync after every append.  Off by default: the simulated crash
        #: model is process death, for which flushing to the OS suffices;
        #: a real deployment would turn this on (and eat the latency).
        self.fsync = fsync
        path = self.root / WAL_NAME
        if _recovered:
            # Recovery replayed (and possibly truncated) the log; keep
            # appending to it.
            self._file: BinaryIO | None = path.open("ab")
            return
        if path.exists():
            raise DurabilityError(
                f"durability root {self.root} already holds a WAL; "
                "recover the store from it (ObjectStore.recover) instead of "
                "attaching a new one"
            )
        self._file = path.open("wb")
        header = {"kind": "wal-header", "base": 0, "store": store.name, "version": 1}
        if store.shard_count is not None:
            header["shards"] = store.shard_count
        self._file.write(WAL_MAGIC + frame(_canonical(header)))
        self._flush()
        # A store that already has history logs it first, one frame per
        # transaction — the bytes an engine attached from birth would hold.
        for _txn_id, records in groupby(store._journal, key=attrgetter("txn_id")):
            self._append(list(records))

    def _flush(self) -> None:
        assert self._file is not None
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush and close the log (the engine is done)."""
        if self._file is not None:
            self._flush()
            self._file.close()
            self._file = None

    def snapshot(self) -> None:
        """Bodiless stub: snapshots were deleted in PR 19 and nothing calls
        this.  The name stays only because ``benchmarks/ledger/layers.py``
        resolves it in this class body, until the next ``benchmark`` PR
        (ROADMAP 2a) unpins it."""

    # -- the write path ------------------------------------------------------

    def log_commit(self, records: list[ChangeRecord]) -> None:
        """Make one committed transaction durable (called from ``_commit``).

        The store has *not* yet extended its in-memory journal when this
        runs: a crash after the append loses only volatile state that
        recovery rebuilds from this very frame.
        """
        self._append(records)

    def log_applied(self, record: ChangeRecord) -> None:
        """Make one replication-applied record durable (``apply_record``)."""
        self._append([record])

    def _append(self, records: list[ChangeRecord]) -> None:
        assert self._file is not None
        name = self.store.name
        data = frame(_canonical({"kind": "commit", **_batch(self.store, records)}))
        if faults.should_inject("wal.append_torn", store=name):
            # Power loss mid-write: a prefix of the frame (header plus
            # half the body) reaches disk.  Recovery must truncate it.
            cut = _FRAME_HEADER + max(0, (len(data) - _FRAME_HEADER) // 2)
            self._file.write(data[:cut])
            self._flush()
            obs.counter("store.wal.torn_writes", store=name).inc()
            raise ProcessCrash("simulated power loss mid-WAL-frame")
        self._file.write(data)
        self._flush()
        obs.counter("store.wal.appends", store=name).inc()
        obs.counter("store.wal.records", store=name).inc(len(records))
        obs.counter("store.wal.bytes", store=name).inc(len(data))
        if faults.should_inject("wal.append_crash", store=name):
            # The frame is durable; the process dies before the in-memory
            # apply.  Recovery must surface this commit.
            raise ProcessCrash("simulated process death after WAL append")


# ---------------------------------------------------------------------------
# The reader: recovery
# ---------------------------------------------------------------------------


def recover_store(
    root: str | Path,
    *,
    name: str | None = None,
    attach: bool = True,
    fsync: bool = False,
) -> ObjectStore:
    """Rebuild a store — plain or sharded, as the header says — from the
    log in its durability root.

    Replays every commit frame through ``apply_record``.  A torn tail is
    truncated (that commit never became durable); a damaged frame with
    more log behind it raises :class:`DurabilityError` and leaves the file
    as it was (:func:`scan_frames`), as does a ``shards``/``homes`` entry
    that does not fit the header.

    With ``attach`` (the default) the recovered store continues journaling
    into the same file.
    """
    from repro.fbnet.sharding import ShardedObjectStore
    from repro.fbnet.store import ObjectStore

    root = Path(root)
    _refuse_old_layout(root)
    path = root / WAL_NAME
    if not path.is_file():
        raise DurabilityError(f"durability root {root} holds no {WAL_NAME}")
    data = path.read_bytes()
    if not data.startswith(WAL_MAGIC):
        raise DurabilityError(f"{path.name}: bad WAL magic")
    bodies, valid_end, torn = scan_frames(data, len(WAL_MAGIC))
    header = _load_json_body(bodies[0], "wal-header") if bodies else None
    if header is None:
        raise DurabilityError(f"{path.name}: missing or malformed WAL header frame")

    shards = header.get("shards")
    store_name = name or header.get("store") or "fbnet"
    store: ObjectStore
    if shards is None:
        store = ObjectStore(name=store_name)
    elif type(shards) is int and shards >= 1:
        store = ShardedObjectStore(shards=shards, name=store_name)
    else:
        raise DurabilityError(f"{root}: shards must be a positive integer, not {shards!r}")

    for body in bodies[1:]:
        commit = _load_json_body(body, "commit")
        if commit is None:
            raise DurabilityError(f"{path.name}: malformed commit frame")
        for payload, *home in _read_batch(commit, shards, path.name):
            store.apply_record(record_from_payload(payload), *home)
    if torn:
        with path.open("r+b") as handle:
            handle.truncate(valid_end)
        obs.counter("store.wal.torn_truncated", store=store.name).inc()
        flight.record(
            "store.wal.truncated",
            phase="store",
            detail=f"{path.name} truncated to {valid_end} bytes",
        )

    # Transaction ids restart above anything recovered.
    tail_txn = store._journal[-1].txn_id if store._journal else 0
    store._next_txn_id = max(store._next_txn_id, tail_txn + 1)

    obs.counter("store.recovery.runs", store=store.name).inc()
    obs.counter("store.recovery.records", store=store.name).inc(
        store.journal_position
    )
    flight.record(
        "store.recovered",
        phase="store",
        verdict="ok",
        detail=(
            f"{store.journal_position} records, "
            f"{int(torn)} torn frame(s) truncated"
        ),
    )
    if attach:
        store._durability = DurabilityEngine(
            store, root, fsync=fsync, _recovered=True
        )
    return store


# ---------------------------------------------------------------------------
# State fingerprinting (bit-identity checks for tests and chaos CI)
# ---------------------------------------------------------------------------


def store_digest(store: ObjectStore) -> str:
    """A sha256 over the store's observable state.

    Covers every table row's field values, the full change journal, and
    the id allocator — two stores with equal digests are interchangeable
    for every read API and for replication.  The store *name* and the
    transaction counter are deliberately excluded: a recovered store may
    be renamed, and aborted (never-durable) transactions legitimately
    consume counter values that no journal record witnesses.
    """
    tables = {
        model: {
            str(obj_id): _encode_row(obj.clone_values())
            for obj_id, obj in sorted(rows.items())
        }
        for model, rows in sorted(store._tables.items())
        if rows
    }
    payload = {
        "tables": tables,
        "journal": [record_payload(r) for r in store._journal],
        "next_id": store._next_id,
    }
    return sha256(_canonical(payload)).hexdigest()
