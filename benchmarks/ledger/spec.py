"""The ledger's names: workloads, metrics, bounds, layers.

Every later performance or simplicity claim is made in these names.
``BENCHMARK.json`` at the repo root is this module rendered to JSON
(``python benchmarks/ledger/spec.py`` prints it; ``test_ledger.py``
asserts the two agree), so a name is added or a bound changed here and
nowhere else.
"""

from __future__ import annotations

import json

#: Seconds of timed work one run collects (the driver passes ``--seconds``).
RUN_SECONDS = 10

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: name -> one line on why the workload exists and what it isolates
#: (at the ``budget`` size, the one the driver runs).
WORKLOADS = {
    "turnup": (
        "green-field turn-up of a 102-device fleet, WAL flushed to the OS (no fsync): "
        "few bulk ops, so the planner fan-out (fbnet.sharding + fbnet.store.read) dominates"
    ),
    "churn": (
        "300 small changes on 74 devices, each through incremental_cycle, WAL flushed to the OS; "
        "kinds weighted by Fig. 15, devices by Fig. 16, 10% no-op control: dirty scan and per-commit costs"
    ),
    "monitor": (
        "monitoring ticks, fault detection and a 10k-message syslog burst (Table 3 mix) on 16 "
        "devices: the only workload where monitoring.* and Derived writes dominate"
    ),
    "frontdoor": (
        "10k Zipf reads through a cached replica of 256 devices, no WAL; synthetic query mix and "
        "2% write trickle (the paper gives neither): median = hit path, p95/p99 = miss path"
    ),
}

#: (name, unit, better, bound).  Every workload reports every one of
#: these from an untraced run, and none is ever 0 (the driver's rule).
#: A bound is three times the widest ten-seed spread the metric showed on
#: any workload (two sweeps, README), rounded up to 5 % and capped at the
#: driver's 25 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.20),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Which percentile each workload really reports under the three latency
#: names.  A percentile needs ten samples beyond it (stats.percentile
#: refuses otherwise); the batch workloads collect a few dozen samples a
#: run, so their tail names carry the median and say so.
OP_PERCENTILES = {
    "turnup": {"op_p50_ms": 50, "op_p95_ms": 50, "op_p99_ms": 50},
    "churn": {"op_p50_ms": 50, "op_p95_ms": 95, "op_p99_ms": 95},
    "monitor": {"op_p50_ms": 50, "op_p95_ms": 50, "op_p99_ms": 50},
    "frontdoor": {"op_p50_ms": 50, "op_p95_ms": 95, "op_p99_ms": 99},
}


def alias_of(workload: str, metric: str) -> str | None:
    """The earlier latency name that carries the same percentile on this
    workload, if any: the two cells hold one number.  The driver wants
    every name from every workload, so the number is printed under both;
    compare.py judges it once, under the earlier name."""
    names = OP_PERCENTILES[workload]
    for earlier in names:
        if earlier == metric:
            return None
        if names[earlier] == names.get(metric):
            return earlier
    return None


#: Untraced numbers only some workloads have.  Printed, written to
#: ``--out``/``--history`` and checked by compare.py with these bounds,
#: but not in BENCHMARK.json: the driver wants every end-to-end metric
#: from every workload.  (name, unit, better, bound, workloads)
DETAIL = (
    ("provision_s", "s", "lower", 0.20, ("turnup", "churn", "monitor")),
    ("recovery_s", "s", "lower", 0.20, ("turnup", "churn")),
    ("syslog_msgs_per_s", "1/s", "higher", 0.20, ("monitor",)),
    ("wal_bytes_per_record", "B", "lower", 0.0, ("turnup", "churn")),
)

#: This repo's modules, as the ledger attributes time to them.
LAYERS = (
    "design",
    "design.ipam",
    "fbnet.store.write",
    "fbnet.store.read",
    "fbnet.sharding",
    "fbnet.durability",
    "fbnet.replication",
    "fbnet.rpc",
    "fbnet.rpc.cache",
    "fbnet.api",
    "configgen.generator",
    "configgen.derive",
    "configgen.schema",
    "configgen.engine",
    "parallel.pool",
    "deploy.deployer",
    "devices.emulator",
    "devices.fleet",
    "monitoring.jobs",
    "monitoring.backends",
    "monitoring.classifier",
    "monitoring.confmon",
    "monitoring.audit",
)

#: Ratios measured at the layer boundaries or read from ``obs`` counters.
RATIOS = (
    ("fbnet.store.read.rows_per_call", "ratio", "lower"),
    ("fbnet.store.read.calls_per_device", "ratio", "lower"),
    ("fbnet.sharding.fanout_share", "ratio", "lower"),
    ("fbnet.sharding.imbalance", "ratio", "lower"),
    ("fbnet.durability.appends_per_commit", "ratio", "lower"),
    ("fbnet.durability.bytes_per_record", "B", "lower"),
    ("fbnet.rpc.cache.hit_rate", "ratio", "higher"),
    ("fbnet.rpc.cache.invalidations_per_write", "ratio", "lower"),
    ("fbnet.rpc.wire_bytes_per_read", "B", "lower"),
    ("configgen.generator.records_scanned_per_cycle", "ratio", "lower"),
    ("configgen.generator.examined_per_regenerated", "ratio", "lower"),
    ("configgen.engine.template_cache_hit_rate", "ratio", "higher"),
    ("deploy.deployer.skip_unchanged_share", "ratio", "higher"),
    ("devices.emulator.commits", "count", "lower"),
    ("monitoring.backends.store_reads_per_record", "ratio", "lower"),
    ("monitoring.classifier.alert_share", "ratio", "lower"),
)

PHASES = (
    "build",
    "boot",
    "provision",
    "sweep",
    "recover",
    "ticks",
    "syslog",
    "audit",
    "replicate",
)

TRACE_METRICS = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """Every ``--trace 1`` metric as (name, unit, better)."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.busy_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out.extend(RATIOS)
    out.extend((f"phase.{name}_s", "s", "lower") for name in PHASES)
    out.extend(TRACE_METRICS)
    return out


def benchmark_json() -> dict:
    """The contract file, exactly the keys the driver reads."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
