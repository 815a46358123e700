#!/usr/bin/env python3
"""Benchmark-regression gate: compare fresh results against baselines.

CI copies the committed ``benchmarks/results/`` aside, reruns the
benchmarks, then runs this script to compare the fresh JSON results
against the baseline copy.  Two kinds of checks:

* **wall-time fields** — a fresh time more than ``TOLERANCE`` slower
  than baseline fails the gate.  Raw seconds are not comparable across
  machines (the committed baselines may come from different hardware
  than a CI runner), so every benchmark JSON records a
  ``calibration_seconds`` — the wall time of a fixed CPU workload on the
  machine that produced it — and times are compared as multiples of
  their own machine's calibration.
* **floor fields** — speedups that must not sink below a fixed floor
  (the paper-derived acceptance bars), compared without scaling since a
  ratio is already machine-neutral.

Usage::

    python benchmarks/check_regression.py \
        --baseline /tmp/bench-baseline --current benchmarks/results
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

#: A fresh wall time may be at most this multiple of the (calibration-
#: scaled) baseline before the gate fails: >25% slowdown is a regression.
TOLERANCE = 1.25

#: file stem -> wall-time fields compared calibration-scaled.
WALL_FIELDS = {
    # incremental_seconds is deliberately absent: it is a tens-of-ms
    # measurement whose run-to-run noise exceeds the tolerance; the
    # speedup floor below already guards the incremental path.
    "sec54_incremental_configgen": (
        "initial_full_seconds",
        "full_regeneration_seconds",
    ),
    "sec53_deployment_modes": ("drill_seconds",),
    "BENCH_parallel": ("serial_seconds", "parallel_seconds"),
    "BENCH_remediation": ("convergence_seconds",),
    "BENCH_durability": ("recovery_seconds",),
    # cycle_seconds and sweep_seconds are deliberately absent for the
    # same reason as incremental_seconds above: both are tens-of-ms
    # measurements whose noise exceeds the tolerance; the benchmark's
    # own assertions (O(dirty) cycle, zero-discrepancy sweep) guard
    # those paths.
    "BENCH_shard": (
        "build_seconds",
        "provision_seconds",
    ),
    "BENCH_rpc_cache": (
        "uncached_seconds",
        "cached_seconds",
    ),
}

#: file stem -> {field: minimum} ratios that must hold absolutely.
FLOOR_FIELDS = {
    "sec54_incremental_configgen": {"speedup": 10.0},
    "BENCH_parallel": {"speedup": 2.0},
    # ROADMAP item 1's scale bar: the sharded benchmark must drive the
    # full management cycle over a 2000+ device fleet (counts are
    # machine-neutral, so no calibration scaling applies).
    "BENCH_shard": {"devices": 2000},
    # ROADMAP item 2's read-front-door bar: the cache must keep a 5x
    # throughput edge (the benchmark itself asserts the 10x target; the
    # gate leaves headroom for runner noise), serve at least 1000 cached
    # qps in absolute terms, and stay at fleet scale.
    "BENCH_rpc_cache": {"speedup": 5.0, "cached_qps": 1000.0, "devices": 2000},
}

#: file stem -> {field: maximum} ratios that must hold absolutely —
#: instrumentation overhead bars (ratio of instrumented to bare wall
#: time on the same machine, so no calibration scaling is needed).
CEILING_FIELDS = {
    # The flight recorder rides the incremental hot path; it may cost
    # at most 5% on a mutate + regenerate_dirty round.
    "sec54_incremental_configgen": {"flight_overhead_ratio": 1.05},
    # Write-ahead journaling (one frame a commit) rides
    # every commit; measured ~1.25x on the 224-device build, gated with
    # headroom for runner noise.
    "BENCH_durability": {"wal_overhead_ratio": 1.6},
}


def calibration_seconds(rounds: int = 3) -> float:
    """Wall time of a fixed CPU workload (best of ``rounds``).

    Benchmarks store this next to their timings so the regression gate
    can compare runs from different machines: a timing is judged as a
    multiple of its own machine's calibration, not in raw seconds.
    """
    best = float("inf")
    for _ in range(rounds):
        digest = b"robotron-calibration"
        started = perf_counter()
        for _ in range(200_000):
            digest = hashlib.sha256(digest).digest()
        best = min(best, perf_counter() - started)
    return best


def load(directory: Path, stem: str) -> dict | None:
    path = directory / f"{stem}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def check(baseline_dir: Path, current_dir: Path) -> list[str]:
    """All gate failures, empty when the run is clean."""
    failures: list[str] = []
    for stem in sorted(set(WALL_FIELDS) | set(FLOOR_FIELDS) | set(CEILING_FIELDS)):
        current = load(current_dir, stem)
        if current is None:
            failures.append(f"{stem}: no fresh result in {current_dir}")
            continue

        for field, floor in FLOOR_FIELDS.get(stem, {}).items():
            value = current.get(field)
            if value is None:
                failures.append(f"{stem}: fresh result lacks {field!r}")
            elif value < floor:
                failures.append(
                    f"{stem}: {field} {value:.2f} below the {floor:.0f}x floor"
                )
            else:
                print(f"ok   {stem}.{field}: {value:.2f} (floor {floor:.0f})")

        for field, ceiling in CEILING_FIELDS.get(stem, {}).items():
            value = current.get(field)
            if value is None:
                failures.append(f"{stem}: fresh result lacks {field!r}")
            elif value > ceiling:
                failures.append(
                    f"{stem}: {field} {value:.3f} above the {ceiling:.2f} ceiling"
                )
            else:
                print(f"ok   {stem}.{field}: {value:.3f} (ceiling {ceiling:.2f})")

        baseline = load(baseline_dir, stem)
        if baseline is None:
            # First run of a new benchmark: nothing to regress against.
            print(f"note {stem}: no baseline JSON; wall-time gate skipped")
            continue
        base_cal = baseline.get("calibration_seconds")
        cur_cal = current.get("calibration_seconds")
        if not base_cal or not cur_cal:
            print(f"note {stem}: calibration missing; wall-time gate skipped")
            continue
        for field in WALL_FIELDS.get(stem, ()):
            base = baseline.get(field)
            cur = current.get(field)
            if base is None or cur is None:
                failures.append(f"{stem}: missing wall-time field {field!r}")
                continue
            ratio = (cur / cur_cal) / (base / base_cal)
            status = "ok  " if ratio <= TOLERANCE else "FAIL"
            print(
                f"{status} {stem}.{field}: {cur:.3f}s vs {base:.3f}s "
                f"(scaled ratio {ratio:.2f}, tolerance {TOLERANCE})"
            )
            if ratio > TOLERANCE:
                failures.append(
                    f"{stem}: {field} regressed {ratio:.2f}x "
                    f"calibration-scaled (> {TOLERANCE})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    args = parser.parse_args(argv)
    failures = check(args.baseline, args.current)
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
