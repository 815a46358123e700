"""Sharded-store scale benchmark — the full cycle on a 2k-device fleet.

ROADMAP item 1's acceptance run: build the :data:`FLEET_2K` profile (64
DC Gen3 + 16 POP Gen2 clusters plus a meshed backbone ring, 2022
devices) into a region-partitioned :class:`ShardedObjectStore`, then
drive the complete management loop against it — configgen, drained
initial provision + undrain, a full-fleet ConfMon sweep, and finally an
incremental cycle after a single design change.

Four numbers bound what scale costs:

* ``build_seconds`` / ``provision_seconds`` / ``sweep_seconds`` — wall
  time of the three fleet-wide passes.  The two CPU-bound ones are also
  written in the ledger's reference-speed seconds (``build_ref_s``,
  ``provision_ref_s``) and held to absolute budgets by the
  ``BENCH_shard`` rows of ``check_ledger.py``.
* ``cycle_seconds`` — the incremental cycle after one interface edit.
  Reported but not gated (a tens-of-ms measurement); the assertion that
  only the touched device regenerates is the real guard — O(dirty), not
  O(fleet), even at 2k devices.

Correctness before speed: every provision report must be clean, the
sweep must find zero discrepancies, and the fleet is at least 2000
devices.
"""

import json
import time

from conftest import RESULTS_DIR, publish_report, reference_seconds

from repro import Robotron, obs
from repro.common.util import format_table
from repro.design.fleet import FLEET_2K, build_fleet
from repro.fbnet.models import PhysicalInterface

SHARDS = 4


def test_bench_shard(benchmark):
    obs.reset()
    robotron = Robotron(shards=SHARDS)
    store = robotron.store

    # -- design build: the whole fleet into the partitioned store ----------
    with reference_seconds() as built:
        build = build_fleet(store, FLEET_2K)

    devices = build.all_devices()
    assert len(devices) == FLEET_2K.device_count >= 2000
    shard_sizes = store.shard_sizes()
    total_objects = store.total_objects()

    # -- provision: drained configgen + deploy, then undrain ---------------
    robotron.boot_fleet()
    with reference_seconds() as provisioned:
        for cluster in build.clusters:
            report = robotron.provision_cluster(cluster)
            assert report.ok, f"provision failed: {sorted(report.failed)}"
        report = robotron.provision_devices(build.backbone_routers)
        assert report.ok, f"backbone provision failed: {sorted(report.failed)}"

    # -- ConfMon: one full-fleet sweep against golden ----------------------
    robotron.attach_monitoring()
    assert robotron.confmon is not None
    started = time.perf_counter()
    discrepancies = robotron.confmon.check_all()
    sweep_seconds = time.perf_counter() - started
    assert discrepancies == []

    # -- incremental cycle: one edit must stay O(dirty) --------------------
    pif = store.all(PhysicalInterface)[0]
    store.update(pif, description="bench recable")

    cycle_seconds = None
    cycle_report = None

    def cycle():
        nonlocal cycle_seconds, cycle_report
        started = time.perf_counter()
        cycle_report = robotron.incremental_cycle()
        cycle_seconds = time.perf_counter() - started

    benchmark.pedantic(cycle, rounds=1, iterations=1)

    assert cycle_report.ok
    regenerated = sorted(cycle_report.generation.regenerated)
    assert len(regenerated) == 1, regenerated

    fanout = sum(
        obs.counter(
            "store.planner.fanout", store=store.name, shard=shard.shard_key
        ).value
        for shard in store.shards
    )
    single_shard = obs.counter(
        "store.planner.single_shard", store=store.name
    ).value

    rows = [
        ("devices in fleet", str(len(devices))),
        ("FBNet objects", f"{total_objects:,}"),
        ("shards", str(SHARDS)),
        ("shard sizes", " ".join(f"{k}={v:,}" for k, v in sorted(shard_sizes.items()))),
        ("fleet build", f"{built.raw_s:.2f}s ({built.ref_s:.2f}s at reference speed)"),
        (
            "provision (configgen + deploy + undrain)",
            f"{provisioned.raw_s:.2f}s ({provisioned.ref_s:.2f}s at reference speed)",
        ),
        ("ConfMon full sweep", f"{sweep_seconds:.2f}s"),
        ("incremental cycle (1 edit)", f"{cycle_seconds * 1000:.1f}ms"),
        ("devices regenerated by cycle", str(len(regenerated))),
        ("planner single-shard reads", f"{single_shard:,}"),
        ("planner fan-out probes", f"{fanout:,}"),
    ]
    text = [
        "Sharded store at scale: full management cycle on fleet_2k",
        f"(workload: {FLEET_2K.datacenter_count * FLEET_2K.dc_clusters_per_site}"
        f" DC Gen3 + {FLEET_2K.pop_count} POP Gen2 clusters, meshed backbone,"
        f" {SHARDS} shards)",
        "",
        format_table(("measure", "value"), rows),
        "",
        "Every provision report is clean, the sweep finds zero",
        "discrepancies, and one interface edit regenerates exactly one",
        "device — the incremental path stays O(dirty) at 2k devices.",
    ]
    publish_report("BENCH_shard", "\n".join(text))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_shard.json").write_text(
        json.dumps(
            {
                "devices": len(devices),
                "total_objects": total_objects,
                "shards": SHARDS,
                "shard_sizes": dict(sorted(shard_sizes.items())),
                "build_seconds": built.raw_s,
                "build_ref_s": built.ref_s,
                "provision_seconds": provisioned.raw_s,
                "provision_ref_s": provisioned.ref_s,
                "sweep_seconds": sweep_seconds,
                "cycle_seconds": cycle_seconds,
                "regenerated": len(regenerated),
                "planner_single_shard": single_shard,
                "planner_fanout": fanout,
            },
            indent=2,
        )
        + "\n"
    )
