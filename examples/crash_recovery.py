"""Crash recovery: kill the process mid-build, replay the WAL, resume.

FBNet's object store keeps a write-ahead log: every committed
transaction is appended to one file as a checksummed frame *before* it
is applied in memory.  This example builds a 224-device design with the
WAL attached, simulates process death at a seeded instant in the middle of
the build (a torn half-written frame, exactly what a power cut leaves
behind), then recovers a bit-identical store from disk and finishes the
build on top of it.

Run:  python examples/crash_recovery.py          (CHAOS_SEED=<n> to reseed)
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ObjectStore, faults, obs, seed_environment
from repro.common.errors import ProcessCrash
from repro.design.cluster import build_cluster
from repro.faults.plan import FaultPlan
from repro.fbnet.durability import encode_record, store_digest
from repro.fbnet.models import ClusterGeneration, Datacenter, Device

CLUSTERS = 8  # DC Gen3 clusters of 28 devices each: 224 devices total


def build_design(store, upto=CLUSTERS):
    env = seed_environment(store, datacenter_count=CLUSTERS)
    for index in range(1, upto + 1):
        dc = f"dc{index:02d}"
        build_cluster(
            store, f"{dc}.c01", env.datacenters[dc], ClusterGeneration.DC_GEN3
        )


def main() -> None:
    seed = int(os.environ.get("CHAOS_SEED", "1337"))
    root = Path(tempfile.mkdtemp(prefix="fbnet-wal-"))
    try:
        # -- the crash ---------------------------------------------------
        store = ObjectStore(name="main")
        store.attach_durability(root)
        plan = FaultPlan(seed=seed)
        plan.inject("wal.append_torn", after=9, times=1)  # die on commit #10
        faults.install(plan)
        try:
            build_design(store)
            raise AssertionError("the fault plan should have killed the build")
        except ProcessCrash:
            pass
        finally:
            faults.uninstall()
        print(f"process died mid-build: {store.journal_position} records "
              f"committed, last WAL frame torn in half")

        # -- the recovery ------------------------------------------------
        (log,) = root.iterdir()  # a durability root holds one file
        before = log.stat().st_size
        recovered = ObjectStore.recover(root)
        torn = int(obs.counter("store.wal.torn_truncated", store="main").value)
        print(f"recovered from {root.name}/{log.name}: {torn} torn frame "
              f"truncated ({before:,} -> {log.stat().st_size:,} bytes)")
        print(f"recovered journal position: {recovered.journal_position} "
              f"(devices so far: {len(recovered.all(Device))})")

        # Disk agreed with the dying process's memory at the last durable
        # commit — the torn transaction vanished atomically.  (Only the
        # journal is compared against the dying process: its in-memory
        # tables still hold the in-flight transaction that never made it
        # to disk, which is exactly what recovery must *not* resurrect.)
        assert recovered.journal_position == store.journal_position
        assert [encode_record(r) for r in recovered.journal] == [
            encode_record(r) for r in store.journal
        ]
        print("recovered journal is bit-identical to the committed prefix")

        # -- resuming ----------------------------------------------------
        # The recovered store is live *and still journaled*: finish the
        # remaining clusters on top of it, then prove a fresh recovery of
        # the combined history matches a crash-free build.
        built = {d.name.split(".")[0] for d in recovered.all(Device)}
        datacenters = {d.name: d for d in recovered.all(Datacenter)}
        for index in range(1, CLUSTERS + 1):
            dc = f"dc{index:02d}"
            if any(name.startswith(dc) for name in built):
                continue
            build_cluster(
                recovered, f"{dc}.c01", datacenters[dc], ClusterGeneration.DC_GEN3
            )
        print(f"resumed build: {len(recovered.all(Device))} devices total")

        oracle = ObjectStore(name="main")
        build_design(oracle)
        replayed = ObjectStore.recover(root, attach=False)
        assert store_digest(replayed) == store_digest(oracle)
        print("full history replays to the same state as a crash-free build")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
