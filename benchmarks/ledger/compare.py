"""Compare two sets of ledger runs.

    python3 benchmarks/ledger/compare.py A B

``A`` (the base) and ``B`` are ``--out`` directories, each holding one or
more untraced runs per workload (``run-*.json``).  For every workload and
metric this prints both medians, the ratio B/A, each side's run-to-run
spread (interquartile distance over the median) and a verdict against the
metric's bound (``BENCHMARK.json`` for the end-to-end metrics,
``spec.DETAIL`` for the workload-specific ones):

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread is wider than the bound, so a move of
  the bound's size cannot be told from noise — unless every run of B is
  better than every run of A (``ok``) or every run worse and the median
  beyond the bound (``worse``);
* ``ok``         — neither.

Where a workload reports one number under two latency names (the batch
workloads' tails, ``spec.OP_PERCENTILES``), it is judged once.

A bound of 0 means the number must repeat exactly.  Exit code 1 on any
``worse`` and on any rise of a workload's failed share; ``unresolved``
is reported and left to the reader, who should rerun with more runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import stats  # noqa: E402


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """workload -> its untraced run records, in file-name order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("run-*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    return runs


def bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound), the contract file first."""
    contract = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    table = {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}
    for name, _unit, better, bound, _workloads in spec.DETAIL:
        table[name] = (better, bound)
    return table


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    worsening = sign * (new_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    if max(stats.spread(base), stats.spread(new)) > bound:
        if all_better:
            return "ok"
        if all_worse and worsening > bound:
            return "worse"
        return "unresolved"
    return "worse" if worsening > bound else "ok"


def values(runs: list[dict], metric: str) -> list[float]:
    """One metric over a side's runs (end-to-end or workload-specific)."""
    found = []
    for run in runs:
        entry = run["metrics"].get(metric) or run.get("detail", {}).get(metric)
        if entry is not None:
            found.append(entry["value"])
    return found


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(base_dir: Path, new_dir: Path) -> int:
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    table = bounds()
    status = 0
    print(f"base A = {base_dir} , B = {new_dir}; ratio is B/A")
    header = f"{'workload':<10}{'metric':<22}{'A median':>13}{'B median':>13}{'B/A':>8}"
    print(header + f"{'A spread':>10}{'B spread':>10}{'bound':>7}  verdict")
    for workload in spec.WORKLOADS:
        a_runs, b_runs = base_runs.get(workload, []), new_runs.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:<10}missing runs (A: {len(a_runs)}, B: {len(b_runs)})")
            status = 1
            continue
        for metric, (better, bound) in table.items():
            a, b = values(a_runs, metric), values(b_runs, metric)
            if not a or not b:
                continue
            alias = spec.alias_of(workload, metric)
            if alias is not None:
                print(f"{workload:<10}{metric:<22}the same number as {alias} here; judged there")
                continue
            result = verdict(a, b, better, bound)
            if result == "worse":
                status = 1
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            ratio = b_mid / a_mid if a_mid else float("nan")
            print(
                f"{workload:<10}{metric:<22}{a_mid:>13.6g}{b_mid:>13.6g}{ratio:>8.3f}"
                f"{stats.spread(a):>10.1%}{stats.spread(b):>10.1%}{bound:>7.0%}  {result}"
                f"  (n={len(a)},{len(b)})"
            )
        a_failed, b_failed = failed_share(a_runs), failed_share(b_runs)
        rose = b_failed > a_failed
        print(
            f"{workload:<10}{'failed_share':<22}{a_failed:>13.6g}{b_failed:>13.6g}"
            f"{'':>35}  {'worse' if rose else 'ok'}"
        )
        if rose:
            status = 1
        digests = {tuple(r["output_digest"]) for r in a_runs + b_runs}
        if len(digests) > 1:
            print(f"{workload:<10}output_digest differs between runs (an output changed)")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
