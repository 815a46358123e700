"""One log for both store kinds: the layout and its reader checks.

A sharded store logs to the same one file as a plain one.  The header
adds ``shards: N``; every commit frame adds ``homes``, one shard index per
record.  The reader trusts neither: what does not fit is a
``DurabilityError``, never a silently misplaced row.
"""

from __future__ import annotations

import json

import pytest

from repro import Robotron, seed_environment
from repro.common.errors import DurabilityError
from repro.fbnet.durability import (
    WAL_MAGIC,
    WAL_NAME,
    _canonical,
    encode_record,
    frame,
    recover_store,
    scan_frames,
    store_digest,
)
from repro.fbnet.models import ClusterGeneration, Region
from repro.fbnet.sharding import ShardedObjectStore
from repro.fbnet.store import ObjectStore

from tests.invariants import store_violations

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


def read_frames(root) -> list[dict]:
    """The log's frame payloads: the header, then the commits."""
    data = (root / WAL_NAME).read_bytes()
    return [json.loads(body) for body in scan_frames(data, len(WAL_MAGIC))[0]]


def rewrite_commit(root, edit) -> None:
    """Apply ``edit`` to the one commit frame's payload, re-framed validly."""
    header, payload = read_frames(root)
    edit(payload)
    (root / WAL_NAME).write_bytes(
        WAL_MAGIC + frame(_canonical(header)) + frame(_canonical(payload))
    )


class TestOneLayout:
    def test_sharded_root_holds_only_wal_and_snapshot_files(self, tmp_path):
        """…which is exactly one file, the log: there are no snapshots."""
        robotron = Robotron(shards=SHARDS)
        robotron.attach_durability(tmp_path)
        env = seed_environment(robotron.store)
        robotron.build_cluster(
            "pop01.c01", env.pops["pop01"], ClusterGeneration.POP_GEN2
        )
        robotron.store.detach_durability()
        assert [path.name for path in tmp_path.iterdir()] == [WAL_NAME]
        assert (tmp_path / WAL_NAME).is_file()

        live = robotron.store
        recovered = Robotron.recover(tmp_path).store
        assert type(recovered) is ShardedObjectStore
        assert store_violations(recovered) == []
        assert recovered.shard_count == SHARDS
        assert store_digest(recovered) == store_digest(live)
        assert [encode_record(r) for r in recovered.journal] == [
            encode_record(r) for r in live.journal
        ]
        assert recovered._home == live._home
        assert recovered.shard_sizes() == live.shard_sizes()

    def test_frames_carry_one_home_per_record(self, tmp_path):
        store = logged_store(tmp_path, ShardedObjectStore(shards=SHARDS))
        header, commit = read_frames(tmp_path)
        assert header["shards"] == SHARDS
        assert commit["homes"] == [store._home[r.obj_id] for r in store.journal]

    def test_plain_store_writes_neither_key(self, tmp_path):
        logged_store(tmp_path, ObjectStore())
        header, commit = read_frames(tmp_path)
        assert "shards" not in header and "homes" not in commit
        recovered = recover_store(tmp_path, attach=False)
        assert type(recovered) is ObjectStore
        assert store_violations(recovered) == []

    def test_snapshot_carries_shards_and_homes(self, tmp_path):
        """A late attach logs the history it finds — ``shards`` and ``homes``
        included, and a home outlives its row."""
        store = logged_store(tmp_path, ShardedObjectStore(shards=SHARDS))
        store.delete(store.all(Region)[0])
        store.attach_durability(tmp_path / "later")  # history is logged first
        store.detach_durability()
        header, created, deleted = read_frames(tmp_path / "later")
        assert header["shards"] == SHARDS
        assert created["homes"] == [store._placed[r.obj_id] for r in store.journal[:3]]
        assert deleted["homes"] == created["homes"][:1]
        recovered = recover_store(tmp_path / "later", attach=False)
        assert store_violations(recovered) == []
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

    @pytest.mark.parametrize(
        "values", [["name"], "region-01", 7, None], ids=["list", "string", "number", "null"]
    )
    def test_record_values_not_an_object(self, tmp_path, values):
        """A malformed frame is a ``DurabilityError``, whatever the wrong
        type is — never an ``AttributeError`` out of the reader."""
        logged_store(tmp_path, ObjectStore())
        rewrite_commit(tmp_path, lambda p: p["records"][1].__setitem__("values", values))
        with pytest.raises(DurabilityError, match="values must be an object"):
            recover_store(tmp_path, attach=False)

    def test_segment_from_another_shard_count(self, tmp_path):
        """Frames a wider store wrote, under a narrower store's header: a
        home falls outside the header's range."""
        logged_store(tmp_path / "four", ShardedObjectStore(shards=SHARDS))
        wide = ShardedObjectStore(shards=64)
        logged_store(tmp_path / "wide", wide)
        assert max(wide._home.values()) >= SHARDS
        header = read_frames(tmp_path / "four")[0]
        commit = read_frames(tmp_path / "wide")[1]
        (tmp_path / "four" / WAL_NAME).write_bytes(
            WAL_MAGIC + frame(_canonical(header)) + frame(_canonical(commit))
        )
        with pytest.raises(DurabilityError, match=rf"home shard in \[0, {SHARDS}\)"):
            recover_store(tmp_path / "four", attach=False)

    def test_pre_pr14_layout_is_refused_not_read_as_empty(self, tmp_path):
        (tmp_path / "shards.json").write_text('{"kind": "fbnet-shards"}')
        (tmp_path / "shard-00").mkdir()
        with pytest.raises(DurabilityError, match="pre-PR-14"):
            Robotron.recover(tmp_path)
        with pytest.raises(DurabilityError, match="pre-PR-14"):
            ShardedObjectStore(shards=SHARDS).attach_durability(tmp_path)

    @pytest.mark.parametrize("stray", ["snap-000000000003.snap", "wal-000000000003.log"])
    def test_pre_pr19_layout_is_refused_not_half_read(self, tmp_path, stray):
        """A snapshot or a second segment means history this reader would
        not see; neither recovery nor attach may go on beside it."""
        logged_store(tmp_path, ObjectStore())
        (tmp_path / stray).write_bytes(b"left by a store that snapshotted")
        with pytest.raises(DurabilityError, match="pre-PR-19"):
            ObjectStore.recover(tmp_path)
        (tmp_path / WAL_NAME).unlink()
        with pytest.raises(DurabilityError, match="pre-PR-19"):
            ObjectStore().attach_durability(tmp_path)
