"""Tentpole benchmark — parallel config generation vs. serial.

Config generation at fleet scale is dominated by per-device management-
plane I/O; the deterministic worker pool exists to overlap exactly that.
This bench builds the sec54 fleet (8 DC Gen3 clusters, 224 devices),
measures the machine's actual per-device render cost, emulates an I/O
round trip proportional to it (so the workload shape is hardware-
independent), and generates the fleet serially and on a pool of four.
The pooled run must be byte-identical and at least 2x faster.
"""

import json
import time

from conftest import RESULTS_DIR, publish_report
from test_sec54_incremental_configgen import CLUSTERS, build_design

from repro import parallel
from repro.common.util import format_table
from repro.configgen.generator import ConfigGenerator
from repro.fbnet.models import Device

WORKERS = 4

#: Emulated management-plane RTT as a multiple of the measured per-device
#: render cost.  2.5x makes the workload ~70% I/O — the regime the pool
#: targets — while keeping the serial leg a few seconds at most.
IO_COST_RATIO = 2.5
IO_LATENCY_MIN, IO_LATENCY_MAX = 0.002, 0.050


def measured_render_cost(store, devices) -> float:
    """Per-device render seconds on this machine (one-cluster probe)."""
    probe = [d for d in devices if d.name.startswith("dc01.")]
    generator = ConfigGenerator(store)
    started = time.perf_counter()
    with parallel.workers(1):
        generator.generate_devices(probe)
    return (time.perf_counter() - started) / len(probe)


def generate_timed(store, devices, configerator, io_latency, worker_count):
    generator = ConfigGenerator(store, configerator, io_latency=io_latency)
    started = time.perf_counter()
    with parallel.workers(worker_count):
        configs = generator.generate_devices(devices)
    return time.perf_counter() - started, {
        name: config.text for name, config in configs.items()
    }


def test_bench_parallel_configgen(benchmark):
    store = build_design()
    devices = sorted(store.all(Device), key=lambda d: d.name)
    render_cost = measured_render_cost(store, devices)
    io_latency = min(IO_LATENCY_MAX, max(IO_LATENCY_MIN, IO_COST_RATIO * render_cost))

    serial_gen = ConfigGenerator(store)
    serial_seconds, serial_texts = generate_timed(
        store, devices, serial_gen.configerator, io_latency, 1
    )

    parallel_seconds = None
    pooled_texts = None

    def pooled():
        nonlocal parallel_seconds, pooled_texts
        parallel_seconds, pooled_texts = generate_timed(
            store, devices, serial_gen.configerator, io_latency, WORKERS
        )

    benchmark.pedantic(pooled, rounds=1, iterations=1)
    speedup = serial_seconds / parallel_seconds

    # Correctness before speed: the pooled fleet is byte-identical.
    assert pooled_texts == serial_texts
    assert len(pooled_texts) == len(devices)
    assert speedup >= 2, (
        f"pool of {WORKERS} only {speedup:.2f}x faster than serial"
    )

    rows = [
        ("devices in design", str(len(devices))),
        ("measured render cost", f"{render_cost * 1000:.2f}ms/device"),
        ("emulated I/O round trip", f"{io_latency * 1000:.2f}ms/device"),
        ("serial generation", f"{serial_seconds:.3f}s"),
        (f"pool of {WORKERS}", f"{parallel_seconds:.3f}s"),
        ("speedup", f"{speedup:.2f}x"),
        ("byte-identical output", "yes"),
    ]
    text = [
        "Deterministic parallel config generation",
        f"(workload: {CLUSTERS} DC Gen3 clusters, I/O-dominated renders)",
        "",
        format_table(("measure", "value"), rows),
        "",
        "The worker pool overlaps per-device management-plane I/O while",
        "merging results, fault state, and clock in task-key order — the",
        "output is byte-for-byte the serial output, at any pool size.",
    ]
    publish_report("BENCH_parallel", "\n".join(text))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(
        json.dumps(
            {
                "devices": len(devices),
                "clusters": CLUSTERS,
                "workers": WORKERS,
                "render_cost_seconds": render_cost,
                "io_latency_seconds": io_latency,
                "serial_seconds": serial_seconds,
                "parallel_seconds": parallel_seconds,
                "speedup": speedup,
            },
            indent=2,
        )
        + "\n"
    )
