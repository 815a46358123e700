"""The one gate on traced ledgers: a table of bounds over the runs CI makes.

    python3 benchmarks/ledger/run.py --workload turnup --seconds 1 --trace --out DIR
    python3 benchmarks/check_ledger.py DIR [DIR ...]

Each ``DIR`` holds one ``traced-<workload>-*.json`` (so it must be fresh);
every row of :data:`GATES` for that workload is measured on it and fails the
script when it reads above its bound.  Times are the ledger's
reference-speed seconds (``benchmarks/ledger/clock.py`` divides the
machine's speed out), so a budget means the same on a CI runner as here;
counts repeat exactly.  A new gate is a row, not a script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))

import inputs  # noqa: E402  (benchmarks/ledger/inputs.py)


def us_per_call(layer: str):
    """Microseconds of self time one call into ``layer`` costs."""
    return lambda run: run["layers"]["busy_s"][layer] / run["layers"]["calls"][layer] * 1e6


def share(layer: str):
    """``layer``'s self time as a share of the traced round."""
    return lambda run: run["layers"]["busy_s"][layer] / run["layers"]["round_s"]


def calls_per_call(layer: str, per: str):
    """Calls into ``layer`` for each call into ``per`` (a count, so exact)."""
    return lambda run: run["layers"]["calls"][layer] / run["layers"]["calls"][per]


def metric(name: str):
    return lambda run: run["metrics"][name]["value"]


def off_by(name: str, expected: float):
    """How far metric ``name`` reads from ``expected``, in either direction
    (for a count that repeats exactly)."""
    return lambda run: abs(metric(name)(run) - expected)


def alert_share_error(run: dict) -> float:
    """How far ``alert_share`` is from the share of the generated burst that
    was built to match a rule — a prefilter dropping a matching line moves it."""
    burst = len(inputs.monitor(run["seed"], run["scale"], run["size"])["syslog"])
    generated = (burst - inputs.syslog_mix(burst)["ignored"]) / burst
    return abs(metric("monitoring.classifier.alert_share")(run) - generated)


#: (workload, what is measured, how, the most it may read)
GATES = [
    # The store's per-call budget: 16.6 / 26.1 us while it re-derived schema
    # facts per row and per query, about 12.6 / 16.7 with those resolved once
    # (benchmarks/results/ledger_pr17.txt).
    ("turnup", "fbnet.store.write us a call", us_per_call("fbnet.store.write"), 14.0),
    ("turnup", "fbnet.store.read us a call", us_per_call("fbnet.store.read"), 20.0),
    # The front door's miss path scans: 210 us a call while every scanned
    # row re-split and re-walked the query's path, 52-64 with the query
    # compiled to one predicate per table (ledger_pr22.txt).
    ("frontdoor", "fbnet.store.read us a call", us_per_call("fbnet.store.read"), 100.0),
    # Placement may not move unnoticed: the largest shard's object count over
    # the mean, a function of the journal alone (ledger_pr21.txt).
    ("turnup", "fbnet.sharding.imbalance off 2.7685",
     off_by("fbnet.sharding.imbalance", 2.7685), 1e-3),
    ("churn", "fbnet.sharding.imbalance off 2.2237",
     off_by("fbnet.sharding.imbalance", 2.2237), 1e-3),
    # 61 % when every message walked all 719 rules, under 20 % behind the
    # prefilter (ledger_pr16.txt).
    ("monitor", "monitoring.classifier share of the round", share("monitoring.classifier"), 0.25),
    ("monitor", "alert_share off the generated share", alert_share_error, 1e-9),
    # 17.6 with one cursor over the journal, 10,682 when every device
    # rescanned its own tail (ledger_pr15.txt).
    ("churn", "journal records scanned a cycle",
     metric("configgen.generator.records_scanned_per_cycle"), 100.0),
    # One boundary between derive and render: dumps + loads, each one
    # validate.  12.1 % and 5 calls a render when both sides also re-checked
    # the other's work (ledger_pr20.txt).
    ("churn", "configgen.schema share of the round", share("configgen.schema"), 0.10),
    ("churn", "configgen.schema calls a derive",
     calls_per_call("configgen.schema", "configgen.derive"), 4.0),
]


def check(out: Path) -> list[str]:
    [path] = out.glob("traced-*.json")
    run = json.loads(path.read_text())
    rows = [gate for gate in GATES if gate[0] == run["workload"]]
    if not rows:
        return [f"{path.name}: no gate reads a {run['workload']} run"]
    problems = []
    for workload, what, measure, limit in rows:
        value = measure(run)
        print(f"{workload}: {what}: {value:.4g} (limit {limit:g})")
        if value > limit:
            problems.append(f"{workload}: {what} is {value:.4g}, over {limit:g}")
    return problems


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    failures = [problem for out in sys.argv[1:] for problem in check(Path(out))]
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)
