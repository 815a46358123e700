"""The one gate: a table of bounds over the runs CI makes.

    python3 benchmarks/ledger/run.py --workload turnup --seconds 1 --trace --out DIR
    python3 benchmarks/check_ledger.py DIR [DIR | BENCH_x.json ...]

Each ``DIR`` holds one ``traced-<workload>-*.json`` (so it must be fresh); a
file is read as it is — a traced run, or the ``BENCH_*.json`` a pytest bench
wrote, which is called by its stem.  Every row of :data:`GATES` for that
name is measured on it and fails the script when it reads above its bound.
Times are the ledger's reference-speed seconds (``benchmarks/ledger/clock.py``
divides the machine's speed out; the benches time through it with
``conftest.reference_seconds``), so a budget means the same on a CI runner
as here; counts repeat exactly.  A new gate is a row, not a script.
"""

from __future__ import annotations

import json
import sys
from operator import itemgetter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))

import inputs  # noqa: E402  (benchmarks/ledger/inputs.py)


def us_per_call(layer: str):
    """Microseconds of self time one call into ``layer`` costs."""
    return lambda run: run["layers"]["busy_s"][layer] / run["layers"]["calls"][layer] * 1e6


def share(layer: str):
    """``layer``'s self time as a share of the traced round."""
    return lambda run: run["layers"]["busy_s"][layer] / run["layers"]["round_s"]


def self_s(layer: str):
    """``layer``'s self time a traced round, in reference seconds."""
    return lambda run: run["layers"]["busy_s"][layer]


def calls(layer: str):
    """Calls into ``layer`` a traced round (a count, so exact)."""
    return lambda run: run["layers"]["calls"][layer]


def calls_per_call(layer: str, per: str):
    """Calls into ``layer`` for each call into ``per`` (a count, so exact)."""
    return lambda run: run["layers"]["calls"][layer] / run["layers"]["calls"][per]


def rpc_calls_per_request(run: dict) -> float:
    """Traced ``fbnet.rpc`` entry points entered for each request a replica
    handled (a count, so exact)."""
    handled = run["layers"]["names"]["fbnet.rpc:ServiceReplica.handle"][1]
    return run["layers"]["calls"]["fbnet.rpc"] / handled


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


#: (workload or bench, what is measured, how, the most it may read)
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
    # 0.96 s a round when every message walked all 719 rules (PR 11's traced
    # baseline), 0.079-0.083 behind the prefilter; 1.5 x that.  Not a share of
    # the round: cheaper ticks moved the same 0.08 s from 18 % to 22-25 %
    # (ledger_pr25.txt), and PR 11's 0.96 s was only 26 % of its long round.
    ("monitor", "monitoring.classifier self s a round", self_s("monitoring.classifier"), 0.125),
    ("monitor", "alert_share off the generated share", alert_share_error, 1e-9),
    # A collected payload is one indexed read and one transaction: 4,470 store
    # reads a traced round while every Derived row looked itself up, 2,590
    # batched (ledger_pr25.txt); 5 % over that, so a per-row read coming back
    # fails.  The batched read enters through ShardedObjectStore.filter, so
    # monitoring.backends.store_reads_per_record reads 0 by routing alone.
    ("monitor", "fbnet.store.read calls a round", calls("fbnet.store.read"), 2590 * 1.05),
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
    # What the retired cache and WAL benches gated that is machine-neutral
    # (ledger_pr23.txt): 0.2289 misses a read, an exact count unchanged since
    # PR 11; the WAL at 18-21 % of a durable turn-up and 255.9 B a record.
    # Misses, not a hit-vs-miss time ratio: a faster miss path lowers that
    # ratio, and op_p50 (hit) / op_p95 (miss) bound each side on their own.
    ("frontdoor", "cache misses a read (1 - fbnet.rpc.cache.hit_rate)",
     lambda run: 1 - metric("fbnet.rpc.cache.hit_rate")(run), 0.23),
    # What a request pays in the RPC layer, as entry points entered: 6 hit or
    # miss while the header was inside the JSON body; with the call named by
    # the header and the cache holding bytes a hit is 4 (client encode, handle,
    # dispatch, client decode), a miss 7, a write 6 (ledger_pr24.txt).  A
    # decode or encode creeping back onto the hit path moves it.
    ("frontdoor", "fbnet.rpc calls a request off 4.7129",
     lambda run: abs(rpc_calls_per_request(run) - 4.7129), 1e-9),
    ("turnup", "fbnet.durability share of the round", share("fbnet.durability"), 0.30),
    ("turnup", "WAL bytes a record", metric("fbnet.durability.bytes_per_record"), 270.0),
    # The two CPU-bound times no ledger workload restates, through the same
    # clock, read straight off the bench's results JSON: 1.5 x the median of
    # five runs at PR 23 (ledger_pr23.txt).
    ("BENCH_remediation", "storm convergence, reference s", itemgetter("convergence_ref_s"), 0.30),
    ("BENCH_shard", "fleet_2k build, reference s", itemgetter("build_ref_s"), 47.0),
    ("BENCH_shard", "fleet_2k provision, reference s", itemgetter("provision_ref_s"), 22.0),
]


def check(out: Path) -> list[str]:
    if out.is_dir():
        [out] = out.glob("traced-*.json")
    run = json.loads(out.read_text())
    name = run.get("workload", out.stem)
    rows = [gate for gate in GATES if gate[0] == name]
    if not rows:
        return [f"{out.name}: no gate reads a {name} run"]
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
