"""One log for both store kinds: the layout and its reader checks.

A sharded store logs to the same ``wal-*.log`` / ``snap-*.snap`` root as
a plain one.  Headers and snapshots add ``shards: N``; every commit frame
and snapshot adds ``homes``, one shard index per record.  The reader
trusts neither: what does not fit is a ``DurabilityError``, never a
silently misplaced row.
"""

from __future__ import annotations

import json

import pytest

from repro import Robotron, seed_environment
from repro.common.errors import DurabilityError
from repro.fbnet.durability import (
    WAL_MAGIC,
    _canonical,
    encode_record,
    frame,
    recover_store,
    scan_frames,
    store_digest,
    wal_segments,
)
from repro.fbnet.models import ClusterGeneration, Region
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore

pytestmark = pytest.mark.durability

SHARDS = 4


def logged_store(root, store):
    """``store`` with one three-region transaction in its WAL."""
    store.attach_durability(root)
    with store.transaction():
        for index in range(3):
            store.create(Region, name=f"region-{index:02d}")
    store.detach_durability()
    return store


def rewrite_commit(root, edit) -> None:
    """Apply ``edit`` to the one commit frame's payload, re-framed validly."""
    (segment,) = wal_segments(root)
    header, commit = scan_frames(segment.read_bytes(), len(WAL_MAGIC))[0]
    payload = json.loads(commit)
    edit(payload)
    segment.write_bytes(WAL_MAGIC + frame(header) + frame(_canonical(payload)))


class TestOneLayout:
    def test_sharded_root_holds_only_wal_and_snapshot_files(self, tmp_path):
        robotron = Robotron(shards=SHARDS)
        robotron.attach_durability(tmp_path, snapshot_every=1)
        env = seed_environment(robotron.store)
        robotron.build_cluster(
            "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
        )
        robotron.store.detach_durability()
        names = sorted(path.name for path in tmp_path.iterdir())
        assert all(path.is_file() for path in tmp_path.iterdir())
        assert {name.split("-")[0] for name in names} == {"wal", "snap"}
        assert all(name.endswith((".log", ".snap")) for name in names)

        live = robotron.store
        recovered = Robotron.recover(tmp_path).store
        assert type(recovered) is ShardedObjectStore
        assert recovered.shard_count == SHARDS
        assert store_digest(recovered) == store_digest(live)
        assert [encode_record(r) for r in recovered.journal] == [
            encode_record(r) for r in live.journal
        ]
        assert recovered._home == live._home
        assert recovered.shard_sizes() == live.shard_sizes()

    def test_frames_carry_one_home_per_record(self, tmp_path):
        store = logged_store(tmp_path, ShardedObjectStore(shards=SHARDS))
        (segment,) = wal_segments(tmp_path)
        header, commit = map(
            json.loads, scan_frames(segment.read_bytes(), len(WAL_MAGIC))[0]
        )
        assert header["shards"] == SHARDS
        assert commit["homes"] == [store._home[r.obj_id] for r in store.journal]

    def test_plain_store_writes_neither_key(self, tmp_path):
        logged_store(tmp_path, ObjectStore())
        (segment,) = wal_segments(tmp_path)
        header, commit = map(
            json.loads, scan_frames(segment.read_bytes(), len(WAL_MAGIC))[0]
        )
        assert "shards" not in header and "homes" not in commit
        assert type(recover_store(tmp_path, attach=False)) is ObjectStore

    def test_snapshot_carries_shards_and_homes(self, tmp_path):
        store = logged_store(tmp_path, ShardedObjectStore(shards=SHARDS))
        store.delete(store.all(Region)[0])  # a home must outlive its row
        store.attach_durability(tmp_path / "later")  # history => snapshot first
        store.detach_durability()
        recovered = recover_store(tmp_path / "later", attach=False)
        assert not wal_segments(tmp_path / "later")[0].name.endswith("0000.log")
        assert recovered._home == store._home
        assert store_digest(recovered) == store_digest(store)


class TestReaderChecks:
    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: p["homes"].pop(), id="too-short"),
            pytest.param(lambda p: p["homes"].append(0), id="too-long"),
            pytest.param(lambda p: p["homes"].__setitem__(1, SHARDS), id="index-out-of-range"),
            pytest.param(lambda p: p["homes"].__setitem__(1, -1), id="negative-index"),
            pytest.param(lambda p: p["homes"].__setitem__(1, "0"), id="not-an-integer"),
            pytest.param(lambda p: p.pop("homes"), id="missing"),
        ],
    )
    def test_bad_homes_in_a_sharded_log(self, tmp_path, edit):
        logged_store(tmp_path, ShardedObjectStore(shards=SHARDS))
        rewrite_commit(tmp_path, edit)
        with pytest.raises(DurabilityError, match="home shard"):
            recover_store(tmp_path, attach=False)

    def test_homes_in_a_plain_log(self, tmp_path):
        logged_store(tmp_path, ObjectStore())
        rewrite_commit(tmp_path, lambda p: p.__setitem__("homes", [0, 0, 0]))
        with pytest.raises(DurabilityError, match="plain"):
            recover_store(tmp_path, attach=False)

    def test_segment_from_another_shard_count(self, tmp_path):
        logged_store(tmp_path / "four", ShardedObjectStore(shards=SHARDS))
        other = ShardedObjectStore(shards=SHARDS + 1)
        for index in range(3):
            other.create(Region, name=f"region-{index:02d}")
        other.attach_durability(tmp_path / "five")  # rotates to wal-…03.log
        other.create(Region, name="region-03")
        other.detach_durability()
        (stray,) = wal_segments(tmp_path / "five")
        (tmp_path / "four" / stray.name).write_bytes(stray.read_bytes())
        with pytest.raises(DurabilityError, match="shards="):
            recover_store(tmp_path / "four", attach=False)

    def test_pre_pr14_layout_is_refused_not_read_as_empty(self, tmp_path):
        (tmp_path / "shards.json").write_text('{"kind": "fbnet-shards"}')
        (tmp_path / "shard-00").mkdir()
        with pytest.raises(DurabilityError, match="pre-PR-14"):
            Robotron.recover(tmp_path)
        with pytest.raises(DurabilityError, match="pre-PR-14"):
            ShardedObjectStore(shards=SHARDS).attach_durability(tmp_path)
