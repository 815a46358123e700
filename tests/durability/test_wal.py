"""WAL mechanics: append, attach, recover, truncate a torn tail, refuse damage."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Robotron, faults, obs
from repro.common.errors import DurabilityError, ProcessCrash, TransactionError
from repro.faults.plan import FaultPlan
from repro.fbnet.durability import (
    WAL_MAGIC,
    WAL_NAME,
    encode_record,
    scan_frames,
    store_digest,
)
from repro.fbnet.models import Region
from repro.fbnet.store import ObjectStore

from tests.durability.conftest import STORES
from tests.invariants import store_violations

pytestmark = pytest.mark.durability


def make_writes(store, count=5, prefix="r"):
    created = []
    for i in range(count):
        created.append(store.create(Region, name=f"{prefix}{i}"))
    return created


def mixed_history(store) -> None:
    """Single-row commits, a multi-row transaction, an update and a delete."""
    regions = make_writes(store, 3)
    with store.transaction():
        make_writes(store, 4, prefix="txn")
    store.update(regions[1], name="renamed")
    store.delete(regions[2])


class TestAppendAndRecover:
    def test_empty_store_recovers_empty(self, tmp_path):
        store = ObjectStore(name="main")
        store.attach_durability(tmp_path)
        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        assert recovered.journal == []
        assert recovered.name == "main"
        assert store_digest(recovered) == store_digest(store)

    def test_journal_and_tables_round_trip(self, tmp_path, store):
        store.attach_durability(tmp_path)
        regions = make_writes(store)
        store.update(regions[1], name="renamed")
        store.delete(regions[2])

        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        assert [encode_record(r) for r in recovered.journal] == [
            encode_record(r) for r in store.journal
        ]
        assert store_digest(recovered) == store_digest(store)
        assert recovered.first(Region, None) is not None
        assert recovered.count(Region) == store.count(Region)

    def test_rolled_back_txns_leave_no_trace(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 2)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.create(Region, name="doomed")
                raise RuntimeError("abort")
        make_writes(store, 1, prefix="post")
        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        assert store_digest(recovered) == store_digest(store)
        assert recovered.first(Region, None) is not None
        # Committed txn ids are preserved exactly — including the gap the
        # aborted transaction left.
        assert [r.txn_id for r in recovered.journal] == [
            r.txn_id for r in store.journal
        ]

    def test_recovered_store_keeps_journaling(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 3)
        recovered = ObjectStore.recover(tmp_path)
        assert store_violations(recovered) == []
        make_writes(recovered, 2, prefix="post")
        second = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(second) == []
        assert store_digest(second) == store_digest(recovered)
        assert second.count(Region) == 5

    def test_txn_ids_never_collide_after_recovery(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 3)
        recovered = ObjectStore.recover(tmp_path)
        assert store_violations(recovered) == []
        make_writes(recovered, 1, prefix="post")
        old_ids = {r.txn_id for r in store.journal}
        new_ids = {r.txn_id for r in recovered.journal} - old_ids
        assert new_ids and max(old_ids) < min(new_ids)


class TestAttachRules:
    def test_attach_twice_rejected(self, tmp_path, store):
        store.attach_durability(tmp_path / "a")
        with pytest.raises(TransactionError, match="already"):
            store.attach_durability(tmp_path / "b")

    def test_attach_to_populated_root_rejected(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 1)
        other = ObjectStore(name="other")
        with pytest.raises(DurabilityError, match="recover"):
            other.attach_durability(tmp_path)

    def test_attach_to_nonempty_store_snapshots_history(self, tmp_path, store):
        """The history that predates the WAL is logged into it first."""
        make_writes(store, 4)  # volatile until the attach
        store.attach_durability(tmp_path)
        make_writes(store, 2, prefix="post")
        assert [path.name for path in tmp_path.iterdir()] == [WAL_NAME]
        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        assert recovered.journal_position == 6
        assert store_digest(recovered) == store_digest(store)

    @pytest.mark.parametrize("kind", list(STORES))
    def test_late_attach_leaves_the_bytes_of_a_birth_attach(self, tmp_path, kind):
        born = STORES[kind]()
        born.attach_durability(tmp_path / "born")
        mixed_history(born)
        late = STORES[kind]()
        mixed_history(late)
        late.attach_durability(tmp_path / "late")
        for store in (born, late):
            make_writes(store, 1, prefix="post")
            store.detach_durability()
        assert (tmp_path / "late" / WAL_NAME).read_bytes() == (
            tmp_path / "born" / WAL_NAME
        ).read_bytes()

    def test_snapshot_every_accepts_only_none(self, tmp_path):
        with pytest.raises(TypeError, match="snapshot_every"):
            Robotron().attach_durability(tmp_path, snapshot_every=3)
        assert not list(tmp_path.iterdir())
        Robotron().attach_durability(tmp_path, snapshot_every=None)
        with pytest.raises(TypeError, match="snapshot_every"):
            Robotron.recover(tmp_path, snapshot_every=3)

    def test_root_with_no_log_is_refused_not_read_as_empty(self, tmp_path):
        for root in (tmp_path, tmp_path / "missing"):
            with pytest.raises(DurabilityError, match="holds no"):
                ObjectStore.recover(root)
        assert not list(tmp_path.iterdir())

    def test_detach_then_recover(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 2)
        store.detach_durability()
        make_writes(store, 2, prefix="lost")  # volatile again
        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        assert recovered.count(Region) == 2


class TestTornTail:
    def test_torn_write_truncated_and_commit_lost(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 3)
        before = store_digest(store)
        plan = FaultPlan(seed=1)
        plan.inject("wal.append_torn", times=1)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            store.create(Region, name="torn")
        faults.uninstall()

        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        # The torn commit never happened; everything before it survives.
        assert store_digest(recovered) == before
        assert obs.counter("store.wal.torn_truncated", store="fbnet").value == 1

    def test_truncated_tail_reusable_for_appends(self, tmp_path, store):
        store.attach_durability(tmp_path)
        make_writes(store, 3)
        plan = FaultPlan(seed=1)
        plan.inject("wal.append_torn", times=1)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            store.create(Region, name="torn")
        faults.uninstall()

        recovered = ObjectStore.recover(tmp_path)  # attaches + truncates
        assert store_violations(recovered) == []
        make_writes(recovered, 2, prefix="post")
        second = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(second) == []
        assert store_digest(second) == store_digest(recovered)
        assert second.count(Region) == 5

    def test_mid_history_corruption_raises(self, tmp_path, store):
        """One flipped byte mid-log is corruption, not a tail to cut off."""
        store.attach_durability(tmp_path)
        make_writes(store, 10)
        store.detach_durability()
        log = tmp_path / WAL_NAME
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(DurabilityError, match="more bytes of log behind it"):
            ObjectStore.recover(tmp_path)
        assert log.read_bytes() == bytes(data)  # refused, not "repaired"
        assert obs.counter("store.wal.torn_truncated", store="fbnet").value == 0


COMMITS = 6


@pytest.fixture(scope="module")
def seeded_log(tmp_path_factory):
    """The bytes of a log of ``COMMITS`` commits (the first multi-row), its
    frame boundaries and the journal it encodes."""
    root = tmp_path_factory.mktemp("seeded-log")
    store = ObjectStore(name="main")
    store.attach_durability(root)
    with store.transaction():
        make_writes(store, 3, prefix="txn")
    make_writes(store, COMMITS - 1)
    store.detach_durability()
    log = (root / WAL_NAME).read_bytes()
    bodies, end, torn = scan_frames(log, len(WAL_MAGIC))
    assert len(bodies) == 1 + COMMITS and end == len(log) and not torn
    # ends[0] closes the header frame, ends[i] the frame of transaction i.
    ends, position = [], len(WAL_MAGIC)
    for body in bodies:
        position += 8 + len(body)
        ends.append(position)
    return log, ends, store.journal


class TestOneTornTailRule:
    """Cut anywhere: a prefix of whole transactions.  Damage mid-log: refused."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cut_anywhere_recovers_whole_transactions(
        self, tmp_path_factory, seeded_log, data
    ):
        log, ends, journal = seeded_log
        cut = data.draw(st.integers(min_value=ends[0], max_value=len(log)))
        root = tmp_path_factory.mktemp("cut")
        (root / WAL_NAME).write_bytes(log[:cut])
        recovered = ObjectStore.recover(root, attach=False)
        assert store_violations(recovered) == []
        whole = sum(1 for end in ends[1:] if end <= cut)  # transactions that fit
        assert [encode_record(r) for r in recovered.journal] == [
            encode_record(r) for r in journal if r.txn_id <= whole
        ]
        # Only what could not be read is cut off, and the file is reusable.
        assert (root / WAL_NAME).read_bytes() == log[: ends[whole]]

    @settings(max_examples=150, deadline=None)
    @given(index=st.integers(min_value=1, max_value=COMMITS - 1), data=st.data())
    def test_flip_in_a_non_last_frame_raises_and_leaves_the_file(
        self, tmp_path_factory, seeded_log, index, data
    ):
        log, ends, _journal = seeded_log
        # Any bit of frame ``index``'s CRC or body (not its length: a length
        # that points past the end of the file *is* a torn tail).
        offset = data.draw(
            st.integers(min_value=ends[index - 1] + 4, max_value=ends[index] - 1)
        )
        damaged = bytearray(log)
        damaged[offset] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        root = tmp_path_factory.mktemp("flip")
        (root / WAL_NAME).write_bytes(bytes(damaged))
        with pytest.raises(DurabilityError, match="damaged frame"):
            ObjectStore.recover(root)
        assert (root / WAL_NAME).read_bytes() == bytes(damaged)


class TestCrashPoints:
    def test_append_crash_preserves_commit(self, tmp_path, store):
        """Process dies after the WAL append: the commit IS durable."""
        store.attach_durability(tmp_path)
        make_writes(store, 3)
        plan = FaultPlan(seed=1)
        plan.inject("wal.append_crash", times=1)
        faults.install(plan)
        with pytest.raises(ProcessCrash):
            store.create(Region, name="durable-but-not-applied")
        faults.uninstall()

        recovered = ObjectStore.recover(tmp_path, attach=False)
        assert store_violations(recovered) == []
        # In-memory the crashed store never saw the row; on disk it exists.
        assert recovered.count(Region) == 4
        assert recovered.journal_position == store.journal_position + 1
