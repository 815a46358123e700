"""§5.3/§8 — incremental config generation vs. regenerating the world.

The paper's config generation runs at fleet scale (tens of thousands of
devices); the war story in section 8 is what happens when stale configs
meet full regeneration costs.  This benchmark builds a multi-hundred-
device design, mutates a single physical interface, and compares a full
regeneration against ``regenerate_dirty`` walking the journal — the
incremental pass must find exactly the affected device, produce
byte-identical output, and be at least an order of magnitude faster.
"""

import json
import time

from conftest import RESULTS_DIR, publish_report

from repro import ObjectStore, seed_environment
from repro.common.util import format_table
from repro.configgen.generator import ConfigGenerator
from repro.obs import flight
from repro.design.cluster import build_cluster
from repro.fbnet.models import (
    AggregatedInterface,
    ClusterGeneration,
    Device,
    PhysicalInterface,
)

CLUSTERS = 8  # DC Gen3 clusters of 28 devices each: 224 devices total


def build_design():
    store = ObjectStore()
    env = seed_environment(store, datacenter_count=CLUSTERS)
    for index in range(1, CLUSTERS + 1):
        dc = f"dc{index:02d}"
        build_cluster(store, f"{dc}.c01", env.datacenters[dc], ClusterGeneration.DC_GEN3)
    return store


def measure_flight_overhead(generator, store, pif, rounds: int = 40) -> float:
    """Hot-path cost of the flight recorder: recorder on vs off.

    Each round runs the steady-state unit of work (one mutation, one
    ``regenerate_dirty`` walking the journal), alternating recorder on and
    off so the host's drift lands on both, and the best round per mode is
    kept — the minimum of 40 interleaved 3 ms rounds repeats within 3%,
    where five on then five off spread from 0.9x to 1.9x.
    """
    def one_round(tag: str) -> float:
        store.update(pif, description=f"flight-bench {tag}")
        started = time.perf_counter()
        generator.regenerate_dirty()
        return time.perf_counter() - started

    recorder = flight.recorder()
    best = {True: float("inf"), False: float("inf")}
    try:
        for index in range(rounds):
            for enabled in (True, False):
                recorder.enabled = enabled
                best[enabled] = min(best[enabled], one_round(f"{enabled}-{index}"))
    finally:
        recorder.enabled = True
    return best[True] / best[False]


def test_sec54_incremental_vs_full(benchmark):
    store = build_design()
    devices = store.all(Device)
    generator = ConfigGenerator(store)

    started = time.perf_counter()
    generator.generate_devices(devices)
    initial_seconds = time.perf_counter() - started

    # One engineer relabels one physical interface somewhere in the fleet.
    pif = store.all(PhysicalInterface)[0]
    owner = store.get(AggregatedInterface, pif.agg_interface_id).related("device")
    store.update(pif, description="recabled during maintenance")

    # The naive response: regenerate the world.
    started = time.perf_counter()
    full = ConfigGenerator(store, generator.configerator)
    full.generate_devices(devices)
    full_seconds = time.perf_counter() - started

    # The change-propagation response: walk the journal, regenerate dirty.
    # Timed directly (not via benchmark.stats, which --benchmark-disable
    # nulls out); the benchmark fixture still records the run when enabled.
    report = None
    incremental_seconds = None

    def incremental():
        nonlocal report, incremental_seconds
        started = time.perf_counter()
        report = generator.regenerate_dirty()
        incremental_seconds = time.perf_counter() - started

    benchmark.pedantic(incremental, rounds=1, iterations=1)

    speedup = full_seconds / incremental_seconds

    # Correctness before speed: exactly the affected device, and the
    # incremental golden set is byte-identical to the full regeneration.
    assert set(report.regenerated) == {owner.name}
    assert {n: c.text for n, c in generator.golden.items()} == {
        n: c.text for n, c in full.golden.items()
    }
    assert speedup >= 10, (
        f"incremental pass only {speedup:.1f}x faster than full regeneration"
    )

    # Provenance must ride the hot path for free: at most 5% on a mutate +
    # regenerate_dirty round.  Measured after the correctness assertions
    # because each round mutates the fleet again.
    flight_overhead_ratio = measure_flight_overhead(generator, store, pif)
    assert flight_overhead_ratio <= 1.05, (
        f"flight recorder costs {(flight_overhead_ratio - 1) * 100:+.1f}% "
        "on the incremental hot path"
    )

    rows = [
        ("devices in design", str(len(devices))),
        ("initial full generation", f"{initial_seconds:.3f}s"),
        ("full regeneration after 1 change", f"{full_seconds:.3f}s"),
        ("incremental (regenerate_dirty)", f"{incremental_seconds * 1000:.1f}ms"),
        ("devices regenerated", f"{len(report.regenerated)} ({owner.name})"),
        ("new journal records followed", str(report.records_scanned)),
        ("speedup", f"{speedup:.0f}x"),
        ("flight recorder overhead", f"{(flight_overhead_ratio - 1) * 100:+.1f}%"),
    ]
    text = [
        "Section 5.3/8: incremental config generation",
        f"(workload: {CLUSTERS} DC Gen3 clusters, single-interface change)",
        "",
        format_table(("measure", "value"), rows),
        "",
        "Read-set dirty mapping touches one device out of the fleet and",
        "still produces byte-identical output to full regeneration.",
    ]
    publish_report("sec54_incremental_configgen", "\n".join(text))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sec54_incremental_configgen.json").write_text(
        json.dumps(
            {
                "devices": len(devices),
                "clusters": CLUSTERS,
                "initial_full_seconds": initial_seconds,
                "full_regeneration_seconds": full_seconds,
                "incremental_seconds": incremental_seconds,
                "devices_regenerated": sorted(report.regenerated),
                "records_scanned": report.records_scanned,
                "speedup": speedup,
                "flight_overhead_ratio": flight_overhead_ratio,
            },
            indent=2,
        )
        + "\n"
    )
