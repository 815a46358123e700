"""Durability benchmark — WAL overhead on the write path, recovery time.

Two numbers bound what crash-consistency costs:

* ``wal_overhead_ratio`` — wall time of the 224-device design build with
  the write-ahead log attached vs. bare, min-of-rounds on the same
  machine.  Gated absolutely by ``check_regression.py`` (CEILING_FIELDS,
  like the flight recorder's 5% bar): journaling must stay a small
  multiplier on the write path, not a 2x tax.
* ``recovery_seconds`` — wall time of ``ObjectStore.recover`` replaying
  the full build's log back into a live store.  Gated
  calibration-scaled against the committed baseline.

Recovery correctness (bit-identical journal + tables) is asserted here
too — a fast recovery to the wrong state is worthless.
"""

import json
import shutil
import time
from pathlib import Path

from check_regression import calibration_seconds
from conftest import RESULTS_DIR, publish_report

from repro import ObjectStore, seed_environment
from repro.common.util import format_table
from repro.design.cluster import build_cluster
from repro.fbnet.durability import store_digest
from repro.fbnet.models import ClusterGeneration

CLUSTERS = 8  # DC Gen3 clusters of 28 devices each: 224 devices total
ROUNDS = 3


def build_design(store) -> None:
    env = seed_environment(store, datacenter_count=CLUSTERS)
    for index in range(1, CLUSTERS + 1):
        dc = f"dc{index:02d}"
        build_cluster(
            store, f"{dc}.c01", env.datacenters[dc], ClusterGeneration.DC_GEN3
        )


def timed_build(root: Path | None) -> tuple[float, ObjectStore]:
    store = ObjectStore(name="main")
    if root is not None:
        store.attach_durability(root)
    started = time.perf_counter()
    build_design(store)
    return time.perf_counter() - started, store


def test_bench_durability(benchmark, tmp_path):
    # -- WAL overhead: min-of-rounds bare vs journaled ---------------------
    bare_seconds = min(timed_build(None)[0] for _ in range(ROUNDS))
    wal_runs = []
    for index in range(ROUNDS):
        root = tmp_path / f"wal-{index}"
        wal_runs.append((timed_build(root)[0], root))
    wal_seconds, wal_root = min(wal_runs, key=lambda run: run[0])
    wal_overhead_ratio = wal_seconds / bare_seconds
    wal_bytes = sum(path.stat().st_size for path in wal_root.glob("*"))

    # -- recovery time: replay the WAL into a live store -------------------
    # Recover from a copy so the timed run sees the file as the build left
    # it (recovery truncates a torn tail).
    oracle = ObjectStore(name="main")
    build_design(oracle)

    recovery_seconds = None
    recovered = None

    def recover():
        nonlocal recovery_seconds, recovered
        root = tmp_path / "recover"
        if root.exists():
            shutil.rmtree(root)
        shutil.copytree(wal_root, root)
        started = time.perf_counter()
        recovered = ObjectStore.recover(root, attach=False)
        recovery_seconds = time.perf_counter() - started

    benchmark.pedantic(recover, rounds=1, iterations=1)

    # Correctness before speed: the recovered store is bit-identical to a
    # crash-free build.
    assert store_digest(recovered) == store_digest(oracle)
    records = recovered.journal_position

    rows = [
        ("devices in design", "224"),
        ("journal records", str(records)),
        ("bare build (best of 3)", f"{bare_seconds:.3f}s"),
        ("journaled build (best of 3)", f"{wal_seconds:.3f}s"),
        ("WAL overhead", f"{(wal_overhead_ratio - 1) * 100:+.1f}%"),
        ("WAL bytes", f"{wal_bytes:,}"),
        ("recovery (log replay)", f"{recovery_seconds:.3f}s"),
    ]
    text = [
        "Durability: WAL overhead and crash recovery",
        f"(workload: {CLUSTERS} DC Gen3 clusters)",
        "",
        format_table(("measure", "value"), rows),
        "",
        "The recovered store's journal and tables are bit-identical to a",
        "crash-free build; the overhead ratio is gated absolutely and the",
        "recovery time calibration-scaled by check_regression.py.",
    ]
    publish_report("BENCH_durability", "\n".join(text))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_durability.json").write_text(
        json.dumps(
            {
                "devices": 224,
                "records": records,
                "bare_seconds": bare_seconds,
                "wal_seconds": wal_seconds,
                "wal_overhead_ratio": wal_overhead_ratio,
                "wal_bytes": wal_bytes,
                "recovery_seconds": recovery_seconds,
                "calibration_seconds": calibration_seconds(),
            },
            indent=2,
        )
        + "\n"
    )
