"""Durable FBNet: write-ahead log, snapshots, and crash-consistent recovery.

The paper's FBNet sits on a durable MySQL master (section 4.3.1) — a
Robotron process can die and come back with the Desired state intact.
This module gives the in-process :class:`~repro.fbnet.store.ObjectStore`
the same property:

* every committed transaction is appended to a **write-ahead log** before
  it becomes visible in memory — one length-prefixed, CRC-checksummed
  frame per commit, carrying the transaction's
  :class:`~repro.fbnet.store.ChangeRecord` batch in a deterministic wire
  encoding;
* periodic **snapshots** serialize the full store state (the journal is
  the state: replaying it rebuilds tables, indexes, and shadow values
  bit-identically — exactly what replication's resync already proves)
  together with the journal position they cover, after which the WAL
  rotates to a fresh segment and covered segments are pruned;
* **recovery** (:func:`recover_store`, surfaced as
  ``ObjectStore.recover`` / ``Robotron.recover``) loads the latest valid
  snapshot, replays the WAL tail on top, and truncates a torn tail frame
  — the store that comes back has object tables, unique/reverse indexes,
  and change journal identical to the pre-crash store at its last
  durable commit.

Crash points are wired through :mod:`repro.faults` so seeded chaos runs
can kill the "process" at every interesting instant:

* ``wal.append_torn`` — power dies mid-frame: a prefix of the frame
  reaches disk (recovery must detect and truncate it; the commit is lost);
* ``wal.append_crash`` — the frame is durable but the process dies before
  the in-memory apply (recovery must replay it; the commit survives);
* ``wal.rotate_crash`` — the snapshot is written but the process dies
  before the WAL rotates (recovery must not double-apply the overlap).

All three raise :class:`~repro.common.errors.ProcessCrash`, which test
harnesses treat as process death: discard the store, recover from disk.

File layout under one durability root directory::

    wal-000000000000.log   # segment; header frame records its base position
    wal-000000000421.log   # segment opened by a rotation at position 421
    snap-000000000421.snap # snapshot covering journal positions [0, 421)

A sharded store (:mod:`repro.fbnet.sharding`) uses the same files, with
two additions: segment headers and snapshots carry ``"shards": N``, and
every commit frame and snapshot carries ``"homes"``, one shard index per
record, beside ``"records"`` — so recovery builds an N-shard store and
puts each row back where it lived without re-deriving placement.  A plain
store writes neither key.  The reader checks both: ``shards`` must agree
across the snapshot and every segment, and ``homes`` must be absent for a
plain root and, for a sharded one, as long as ``records`` with every
index in ``[0, N)`` — anything else is a :class:`DurabilityError`.

Frame format (everywhere): ``u32 body length | u32 crc32(body) | body``,
with canonical-JSON bodies (sorted keys, no whitespace) so identical
state encodes to identical bytes.
"""

from __future__ import annotations

import importlib
import json
import zlib
from collections.abc import Iterable
from enum import Enum
from hashlib import sha256
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from repro import faults, obs
from repro.obs import flight
from repro.common.errors import DurabilityError, ProcessCrash
from repro.fbnet.store import ChangeOp, ChangeRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us lazily)
    from repro.fbnet.store import ObjectStore

__all__ = [
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

#: 8-byte magic prefixes identifying the two file kinds (version baked in).
WAL_MAGIC = b"FBWAL\x00\x00\x01"
SNAP_MAGIC = b"FBSNP\x00\x00\x01"

_FRAME_HEADER = 8  # u32 length + u32 crc32
#: Sanity cap: a frame body longer than this is treated as corruption
#: rather than an allocation request.
_MAX_FRAME = 256 * 1024 * 1024


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
    whether trailing bytes exist that do not form a valid frame (a torn
    tail — truncated header, short body, or checksum mismatch).
    """
    bodies: list[bytes] = []
    position = offset
    total = len(data)
    while position < total:
        if total - position < _FRAME_HEADER:
            return bodies, position, True
        length = int.from_bytes(data[position : position + 4], "big")
        if length > _MAX_FRAME:
            return bodies, position, True
        crc = int.from_bytes(data[position + 4 : position + 8], "big")
        body_start = position + _FRAME_HEADER
        body = data[body_start : body_start + length]
        if len(body) != length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            return bodies, position, True
        bodies.append(body)
        position = body_start + length
    return bodies, position, False


# ---------------------------------------------------------------------------
# Directory layout helpers
# ---------------------------------------------------------------------------


def _segment_path(root: Path, base: int) -> Path:
    return root / f"wal-{base:012d}.log"


def _snapshot_path(root: Path, position: int) -> Path:
    return root / f"snap-{position:012d}.snap"


def wal_segments(root: Path) -> list[Path]:
    """WAL segment files under ``root``, ordered by base position."""
    return sorted(root.glob("wal-*.log"))


def snapshot_files(root: Path) -> list[Path]:
    """Snapshot files under ``root``, ordered newest (highest position) first."""
    return sorted(root.glob("snap-*.snap"), reverse=True)


def _load_json_body(body: bytes, kind: str) -> dict[str, Any] | None:
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        return None
    return payload


def load_snapshot(path: Path) -> dict[str, Any] | None:
    """Parse and validate one snapshot file; ``None`` when invalid."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if not data.startswith(SNAP_MAGIC):
        return None
    bodies, _end, torn = scan_frames(data, len(SNAP_MAGIC))
    if torn or len(bodies) != 1:
        return None
    return _load_json_body(bodies[0], "snapshot")


def _refuse_old_layout(root: Path) -> None:
    if (root / "shards.json").exists():
        raise DurabilityError(
            f"{root} holds a shards.json: that is the pre-PR-14 sharded layout "
            "(one WAL root per shard plus an order log), which has no reader; "
            "a sharded store now logs to one root like a plain one"
        )


def _layout(store: ObjectStore) -> dict[str, Any]:
    """The header/snapshot entry saying how many shards rows are spread over."""
    return {} if store.shard_count is None else {"shards": store.shard_count}


def _batch(store: ObjectStore, records: list[ChangeRecord]) -> dict[str, Any]:
    """The ``records`` entry of a commit frame or snapshot — and, for a
    sharded store, the ``homes`` entry beside it."""
    payload: dict[str, Any] = {"records": [record_payload(r) for r in records]}
    if store.shard_count is not None:
        payload["homes"] = store._homes(records)
    return payload


def _read_batch(
    payload: dict[str, Any], shards: int | None, where: str
) -> Iterable[tuple[dict[str, Any], int | None]]:
    """Invert :func:`_batch`: ``(record payload, home)`` pairs, checked
    against the root's ``shards``."""
    records, homes = payload.get("records"), payload.get("homes")
    if not isinstance(records, list):
        raise DurabilityError(f"{where}: no record list")
    if shards is None:
        if homes is not None:
            raise DurabilityError(f"{where}: homes in a plain store's log")
        return zip(records, repeat(None))
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
# The engine: WAL appends + snapshots on a live store
# ---------------------------------------------------------------------------


class DurabilityEngine:
    """The durability sidecar of one :class:`ObjectStore`.

    Created through :meth:`ObjectStore.attach_durability` (fresh stores)
    or by :func:`recover_store` (reattach after recovery).  The store
    calls :meth:`log_commit` from ``_commit()`` *before* extending its
    in-memory journal — the WAL append is the durability point — and
    :meth:`log_applied` from ``apply_record()`` on the replication
    receive path.
    """

    def __init__(
        self,
        store: ObjectStore,
        root: str | Path,
        *,
        snapshot_every: int | None = None,
        fsync: bool = False,
        _recovered: bool = False,
    ):
        self.store = store
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        _refuse_old_layout(self.root)
        if snapshot_every is not None and snapshot_every < 1:
            raise DurabilityError("snapshot_every must be >= 1 (or None)")
        #: Auto-snapshot after this many commits (None = manual only).
        self.snapshot_every = snapshot_every
        #: fsync after every append.  Off by default: the simulated crash
        #: model is process death, for which flushing to the OS suffices;
        #: a real deployment would turn this on (and eat the latency).
        self.fsync = fsync
        self._commits_since_snapshot = 0
        self._file: BinaryIO | None = None
        #: Journal position covered by the WAL + snapshots so far.
        self._position = store.journal_position

        existing_segments = wal_segments(self.root)
        existing_snaps = snapshot_files(self.root)
        if not _recovered and (existing_segments or existing_snaps):
            raise DurabilityError(
                f"durability root {self.root} already holds WAL/snapshot files; "
                "recover the store from it (ObjectStore.recover) instead of "
                "attaching a new one"
            )
        if _recovered and existing_segments:
            # Recovery replayed (and possibly truncated) the last segment;
            # keep appending to it so positions stay contiguous.
            self._file = existing_segments[-1].open("ab")
        elif self._position:
            # Attaching to a store with history: snapshot it so recovery
            # has the prefix the WAL will not contain.
            self.snapshot()
        else:
            self._open_segment(0)

    # -- segment plumbing ----------------------------------------------------

    def _open_segment(self, base: int) -> None:
        if self._file is not None:
            self._file.close()
        path = _segment_path(self.root, base)
        self._file = path.open("wb")
        header = _canonical(
            {
                "kind": "wal-header",
                "base": base,
                "store": self.store.name,
                "version": 1,
                **_layout(self.store),
            }
        )
        self._file.write(WAL_MAGIC + frame(header))
        self._flush()

    def _flush(self) -> None:
        assert self._file is not None
        self._file.flush()
        if self.fsync:
            import os

            os.fsync(self._file.fileno())

    @property
    def position(self) -> int:
        """Number of journal records made durable so far."""
        return self._position

    def close(self) -> None:
        """Flush and close the active segment (the engine is done)."""
        if self._file is not None:
            self._flush()
            self._file.close()
            self._file = None

    # -- the write path ------------------------------------------------------

    def log_commit(self, records: list[ChangeRecord]) -> None:
        """Make one committed transaction durable (called from ``_commit``).

        The store has *not* yet extended its in-memory journal when this
        runs: a crash after the append loses only volatile state that
        recovery rebuilds from this very frame.
        """
        self._log(records)

    def log_applied(self, record: ChangeRecord) -> None:
        """Make one replication-applied record durable (``apply_record``)."""
        self._log([record])

    def _log(self, records: list[ChangeRecord]) -> None:
        if self.snapshot_every and self._commits_since_snapshot >= self.snapshot_every:
            self.snapshot()
        body = _canonical({"kind": "commit", **_batch(self.store, records)})
        self._append_frame(frame(body), len(records))
        self._commits_since_snapshot += 1

    def _append_frame(self, data: bytes, record_count: int) -> None:
        assert self._file is not None
        if faults.should_inject("wal.append_torn", store=self.store.name):
            # Power loss mid-write: a prefix of the frame (header plus
            # half the body) reaches disk.  Recovery must truncate it.
            cut = _FRAME_HEADER + max(0, (len(data) - _FRAME_HEADER) // 2)
            self._file.write(data[:cut])
            self._flush()
            obs.counter("store.wal.torn_writes", store=self.store.name).inc()
            raise ProcessCrash("simulated power loss mid-WAL-frame")
        self._file.write(data)
        self._flush()
        self._position += record_count
        obs.counter("store.wal.appends", store=self.store.name).inc()
        obs.counter("store.wal.records", store=self.store.name).inc(record_count)
        obs.counter("store.wal.bytes", store=self.store.name).inc(len(data))
        if faults.should_inject("wal.append_crash", store=self.store.name):
            # The frame is durable; the process dies before the in-memory
            # apply.  Recovery must surface this commit.
            raise ProcessCrash("simulated process death after WAL append")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Path:
        """Write a snapshot of the store, then rotate the WAL past it.

        The snapshot is written to a temp file and atomically renamed, so
        a crash mid-write leaves the previous snapshot authoritative.  The
        ``wal.rotate_crash`` point fires between the rename and the
        rotation — the window where snapshot and WAL overlap and recovery
        must not apply the covered records twice.
        """
        store = self.store
        position = store.journal_position
        payload = {
            "kind": "snapshot",
            "store": store.name,
            "position": position,
            "next_id": store._next_id,
            "next_txn_id": store._next_txn_id,
            **_layout(store),
            **_batch(store, store._journal),
        }
        data = SNAP_MAGIC + frame(_canonical(payload))
        final = _snapshot_path(self.root, position)
        tmp = final.with_suffix(".tmp")
        tmp.write_bytes(data)
        tmp.replace(final)
        obs.counter("store.snapshot.writes", store=store.name).inc()
        obs.counter("store.snapshot.bytes", store=store.name).inc(len(data))
        flight.record(
            "store.snapshot",
            phase="store",
            detail=f"position {position}, {len(data)} bytes",
        )
        if faults.should_inject("wal.rotate_crash", store=store.name):
            raise ProcessCrash(
                "simulated process death between snapshot write and WAL rotation"
            )
        self._rotate(position)
        self._commits_since_snapshot = 0
        return final

    def _rotate(self, base: int) -> None:
        self._open_segment(base)
        self._prune()

    def _prune(self) -> None:
        """Drop files made redundant by snapshot coverage.

        The newest *two* snapshots are kept — if the latest ever fails
        validation, recovery falls back to the previous one — so segments
        are prunable only below the *older* kept snapshot's position.
        """
        snaps = snapshot_files(self.root)
        keep = snaps[:2]
        for stale in snaps[2:]:
            stale.unlink(missing_ok=True)
        if len(keep) < 2:
            # No fallback snapshot yet: every segment must stay so recovery
            # can still rebuild from position 0 if the only snapshot is bad.
            return
        keep_floor = min(int(path.stem.split("-")[1]) for path in keep)
        segments = wal_segments(self.root)
        for segment, successor in zip(segments, segments[1:]):
            successor_base = int(successor.stem.split("-")[1])
            if successor_base <= keep_floor:
                segment.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def _scan_segment(
    path: Path,
) -> tuple[dict[str, Any] | None, list[bytes], int, bool]:
    """Read one segment: (header, commit bodies, valid byte length, torn?).

    The header is ``None`` when not even its frame survived: the whole
    file is a torn tail.
    """
    data = path.read_bytes()
    if not data.startswith(WAL_MAGIC):
        raise DurabilityError(f"{path.name}: bad WAL magic")
    bodies, end, torn = scan_frames(data, len(WAL_MAGIC))
    if not bodies:
        if torn:
            return None, [], len(WAL_MAGIC), True
        raise DurabilityError(f"{path.name}: missing WAL header frame")
    header = _load_json_body(bodies[0], "wal-header")
    if header is None or not isinstance(header.get("base"), int):
        raise DurabilityError(f"{path.name}: malformed WAL header frame")
    return header, bodies[1:], end, torn


def recover_store(
    root: str | Path,
    *,
    name: str | None = None,
    attach: bool = True,
    snapshot_every: int | None = None,
    fsync: bool = False,
) -> ObjectStore:
    """Rebuild a store — plain or sharded, as the root says — from its
    durability root.

    Loads the newest snapshot that validates (magic + checksum), replays
    it, then replays every WAL record past the snapshot position.  A torn
    frame at the tail of the *last* segment is truncated (that commit
    never became durable); an invalid frame anywhere else is corruption
    and raises :class:`DurabilityError`, as does a coverage gap between
    the snapshot and the surviving segments, or a ``shards``/``homes``
    entry that does not fit the rest of the root.

    With ``attach`` (the default) the recovered store continues journaling
    into the same root, appending to the surviving segment.
    """
    from repro.fbnet.sharding import ShardedObjectStore
    from repro.fbnet.store import ObjectStore

    root = Path(root)
    if not root.is_dir():
        raise DurabilityError(f"durability root {root} does not exist")
    _refuse_old_layout(root)

    snapshot: dict[str, Any] | None = None
    for candidate in snapshot_files(root):
        snapshot = load_snapshot(candidate)
        if snapshot is not None:
            break
        obs.counter("store.recovery.invalid_snapshots").inc()

    segments = wal_segments(root)
    scans = [_scan_segment(segment) for segment in segments]
    layout = snapshot or (scans[0][0] if scans else None) or {}
    shards = layout.get("shards")
    store_name = name or layout.get("store") or "fbnet"
    store: ObjectStore
    if shards is None:
        store = ObjectStore(name=store_name)
    elif type(shards) is int and shards >= 1:
        store = ShardedObjectStore(shards=shards, name=store_name)
    else:
        raise DurabilityError(f"{root}: shards must be a positive integer, not {shards!r}")

    torn_truncated = 0
    snap_next_id = 1
    snap_next_txn = 1
    if snapshot is not None:
        for payload, home in _read_batch(snapshot, shards, "snapshot"):
            store.apply_record(record_from_payload(payload), home)
        if store.journal_position != snapshot["position"]:
            raise DurabilityError(
                f"snapshot claims position {snapshot['position']} but carries "
                f"{store.journal_position} records"
            )
        snap_next_id = snapshot.get("next_id", 1)
        snap_next_txn = snapshot.get("next_txn_id", 1)

    for segment, (header, bodies, valid_end, torn) in zip(segments, scans):
        last = segment is segments[-1]
        if torn and not last:
            raise DurabilityError(
                f"{segment.name}: invalid frame mid-history (not the WAL tail)"
            )
        if header is not None and header.get("shards") != shards:
            raise DurabilityError(
                f"{segment.name}: written for shards={header.get('shards')!r}, "
                f"the rest of {root} for shards={shards!r}"
            )
        position = header["base"] if header is not None else 0
        applied = store.journal_position
        for body in bodies:
            commit = _load_json_body(body, "commit")
            if commit is None:
                raise DurabilityError(f"{segment.name}: malformed commit frame")
            for payload, home in _read_batch(commit, shards, segment.name):
                if position > applied:
                    raise DurabilityError(
                        f"{segment.name}: WAL coverage gap at position {position} "
                        f"(store is at {applied})"
                    )
                if position == applied:
                    store.apply_record(record_from_payload(payload), home)
                    applied += 1
                position += 1
        if torn and last:
            with segment.open("r+b") as handle:
                handle.truncate(valid_end)
            torn_truncated += 1
            obs.counter("store.wal.torn_truncated", store=store.name).inc()
            flight.record(
                "store.wal.truncated",
                phase="store",
                detail=f"{segment.name} truncated to {valid_end} bytes",
            )

    tail_txn = store._journal[-1].txn_id if store._journal else 0
    store._next_txn_id = max(snap_next_txn, tail_txn + 1, store._next_txn_id)
    store._next_id = max(store._next_id, snap_next_id)

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
            f"{torn_truncated} torn frame(s) truncated"
        ),
    )
    if attach:
        store._durability = DurabilityEngine(
            store,
            root,
            snapshot_every=snapshot_every,
            fsync=fsync,
            _recovered=True,
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
        for model, rows in sorted(store._digest_tables().items())
        if rows
    }
    payload = {
        "tables": tables,
        "journal": [record_payload(r) for r in store._journal],
        "next_id": store._next_id,
    }
    return sha256(_canonical(payload)).hexdigest()
