"""The layer ledger: one benchmark for the management cycle.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed 1337]
        [--seconds 10] [--scale 1.0] [--size budget|issue] [--trace]
        [--out DIR] [--history FILE]

Runs the named workload (all four, one child process each, when none is
named), checks its outputs, and prints every metric as ``workload metric
value unit``; the last line of a single-workload run is the result as one
JSON object.  Untraced runs print the end-to-end metrics; ``--trace``
runs wrap the entry points of ``layers.py``, print the layer ledger and
report the per-layer metrics instead (end-to-end numbers never come from
a traced run).  Exit code 0 means every check passed.

See README.md in this directory for what each workload isolates and how
the layer metrics are expected to move the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import inputs  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from layers import ENTRIES  # noqa: E402
from spans import Ledger, Span, Tracer, reduce_spans  # noqa: E402
from workloads import WORKLOADS, Round, fresh_process_state  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec.RUN_SECONDS,
        help="timed work to collect before stopping (whole rounds)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies op counts per round, never fleet sizes",
    )
    parser.add_argument(
        "--size", choices=sorted(inputs.SIZES), default=inputs.DEFAULT_SIZE,
        help="fleet sizes: what the driver's budget allows, or what ISSUE 11 asked for",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="wrap the layer entry points and report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="directory for result/trace files")
    parser.add_argument("--history", type=Path, help="JSONL file to append the run to")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Running rounds
# ---------------------------------------------------------------------------


@dataclass
class Collected:
    """What the rounds of one run produced."""

    rounds: list[Round] = field(default_factory=list)
    #: the traced rounds' spans, reduced and summed
    ledger: Ledger = field(default_factory=Ledger)
    #: the last traced round's spans (what ``--out`` writes)
    spans: list = field(default_factory=list)
    #: the tracer's measure counters (rows, wire bytes)
    counters: dict = field(default_factory=dict)
    crash: str = ""

    def traced_rounds(self, traced: bool = True) -> list[Round]:
        return [r for r in self.rounds if (r.tracer is not None) is traced]


def run_rounds(workload, seconds: float, trace: bool, workdir: Path) -> Collected:
    """Rounds until ``seconds`` of timed work and enough latency samples.

    With ``trace``, the first round runs untraced — its time is the base
    of ``trace.overhead_ratio`` — and the wrappers are installed only
    around the later rounds (at least one).
    """
    needed = max(
        stats.samples_needed(pct) for pct in spec.OP_PERCENTILES[workload.name].values()
    )
    tracer = Tracer() if trace else None
    got = Collected()
    while not got.crash:
        timed = sum(r.wall_s for r in got.rounds)
        samples = sum(len(r.op_ms) for r in got.rounds)
        # Failed ops leave no samples; do not wait for them forever.
        sampled = samples >= needed or any(r.failed for r in got.rounds)
        if timed >= seconds and sampled and (not trace or got.traced_rounds()):
            break
        tracing = tracer is not None and len(got.rounds) >= 1
        rnd = Round(tracer if tracing else None)
        round_dir = workdir / f"round-{len(got.rounds)}"
        round_dir.mkdir()
        fresh_process_state()
        try:
            if tracing:
                tracer.install(ENTRIES)
            workload.run_round(rnd, round_dir)
        except Exception as exc:  # a crashed round still reports, as a failure
            got.crash = f"round {len(got.rounds)} crashed: {type(exc).__name__}: {exc}"
            rnd.fail(max(1, workload.devices), got.crash)
        finally:
            if tracing:
                tracer.uninstall()
            shutil.rmtree(round_dir, ignore_errors=True)
        rnd.finish()
        got.rounds.append(rnd)
        if tracing:
            got.spans = tracer.drain()
            if not got.crash:
                reduced = reduce_spans(got.spans)
                reduced.scale(rnd.clock.mean_factor())
                got.ledger.merge(reduced)
    if tracer is not None:
        got.counters = dict(tracer.counters)
    return got


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _pooled(rounds: list[Round], attr: str) -> list[float]:
    return [value for rnd in rounds for value in getattr(rnd, attr)]


def _safe(fn, *args) -> float:
    """A metric of a crashed run may have nothing to compute from."""
    try:
        return float(fn(*args))
    except (ValueError, ZeroDivisionError, statistics.StatisticsError):
        return 0.0


def end_to_end(name: str, rounds: list[Round]) -> dict[str, dict]:
    op_ms, write_ms = _pooled(rounds, "op_ms"), _pooled(rounds, "write_ms")
    wall = sum(r.wall_s for r in rounds)
    values = {
        "setup_s": _safe(statistics.median, [r.setup_s / r.setups for r in rounds]),
        "wall_s": _safe(statistics.median, [r.wall_s for r in rounds]),
        "ops_per_s": _safe(lambda: sum(r.ops for r in rounds) / wall),
        "write_p50_ms": _safe(stats.percentile, write_ms, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric, pct in spec.OP_PERCENTILES[name].items():
        values[metric] = _safe(stats.percentile, op_ms, pct)
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit, _better, _bound in spec.END_TO_END
    }


def detail(name: str, rounds: list[Round]) -> dict[str, dict]:
    """The untraced numbers only this workload has (``spec.DETAIL``)."""
    out = {}
    for metric, unit, _better, _bound, workloads in spec.DETAIL:
        samples = [r.detail[metric] for r in rounds if metric in r.detail]
        if name in workloads and samples:
            out[metric] = {"value": statistics.median(samples), "unit": unit}
    return out


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def per_layer(got: Collected) -> dict[str, dict]:
    """Every ``--trace 1`` metric, per traced round where it is a total."""
    ledger, counters = got.ledger, got.counters
    traced_rounds, base_rounds = got.traced_rounds(), got.traced_rounds(False)
    n = max(1, len(traced_rounds))
    counts: dict[str, float] = {}
    for rnd in traced_rounds:
        for key, value in rnd.counts.items():
            counts[key] = counts.get(key, 0.0) + value

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    def calls(layer: str, *names: str) -> float:
        # .get: the ledger's tables are defaultdicts, and asking is not adding
        return float(sum(ledger.names.get((layer, name), (0.0, 0))[1] for name in names))

    rows_calls = sum(calls(e.layer, e.name) for e in ENTRIES if e.measure == "rows")
    values: dict[str, float] = {}
    for layer in spec.LAYERS:
        values[f"{layer}.busy_s"] = ledger.busy.get(layer, 0.0) / n
        values[f"{layer}.calls"] = ledger.calls.get(layer, 0) / n
    values.update({
        "fbnet.store.read.rows_per_call": _ratio(counters.get("rows", 0.0), rows_calls),
        "fbnet.store.read.calls_per_device": _ratio(
            ledger.calls.get("fbnet.store.read", 0), c("devices")
        ),
        "fbnet.sharding.fanout_share": _ratio(
            c("planner_fanout"), c("planner_fanout") + c("planner_single")
        ),
        "fbnet.sharding.imbalance": _ratio(c("shard_max"), c("shard_mean")),
        "fbnet.durability.appends_per_commit": _ratio(
            calls("fbnet.durability", "DurabilityEngine.log_commit", "ShardedDurability.log_order"),
            c("router_commits") if c("wal_bytes") else 0.0,
        ),
        "fbnet.durability.bytes_per_record": _ratio(c("wal_bytes"), c("journal_records")),
        "fbnet.rpc.cache.hit_rate": _ratio(
            c("cache_hits"), c("cache_hits") + c("cache_misses")
        ),
        "fbnet.rpc.cache.invalidations_per_write": _ratio(
            c("cache_invalidations"), c("writes")
        ),
        "fbnet.rpc.wire_bytes_per_read": _ratio(
            counters.get("wire", 0.0), calls("fbnet.rpc", "ServiceReplica.handle")
        ),
        "configgen.generator.records_scanned_per_cycle": _ratio(
            c("records_scanned"), c("cycles")
        ),
        "configgen.generator.examined_per_regenerated": _ratio(
            c("examined"), c("regenerated")
        ),
        "configgen.engine.template_cache_hit_rate": _ratio(
            c("template_hits"), c("template_hits") + c("template_misses")
        ),
        "deploy.deployer.skip_unchanged_share": _ratio(
            c("deploy_skipped"), c("deploy_offered")
        ),
        "devices.emulator.commits": calls("devices.emulator", "EmulatedDevice.commit") / n,
        "monitoring.backends.store_reads_per_record": _ratio(
            ledger.edges.get(("monitoring.backends", "fbnet.store.read"), (0.0, 0))[1],
            c("monitor_records"),
        ),
        "monitoring.classifier.alert_share": _ratio(
            c("syslog_alerts"), c("syslog_messages")
        ),
    })
    for phase in spec.PHASES:
        values[f"phase.{phase}_s"] = sum(r.phases.get(phase, 0.0) for r in traced_rounds) / n
    traced_time = [r.setup_s + r.wall_s for r in traced_rounds]
    base_time = [r.setup_s + r.wall_s for r in base_rounds]
    values["trace.overhead_ratio"] = _ratio(
        _safe(statistics.median, traced_time), _safe(statistics.median, base_time)
    )
    values["trace.unattributed_share"] = _ratio(ledger.unattributed_s, ledger.total_s)
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit, _better in spec.per_layer()
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def render_ledger(name: str, ledger: Ledger, rounds: int) -> str:
    """The human-readable ledger of a traced run."""
    total = ledger.total_s or 1.0
    lines = [
        f"== {name}: layer ledger over {rounds} traced round(s), "
        f"{ledger.total_s / max(1, rounds):.3f}s a round (set-up + timed) ==",
        f"{'layer':<24}{'self s':>10}{'share':>8}{'calls':>12}",
    ]
    for layer, busy in sorted(ledger.busy.items(), key=lambda item: -item[1]):
        lines.append(
            f"{layer:<24}{busy / rounds:>10.4f}{busy / total:>8.1%}"
            f"{ledger.calls[layer] / rounds:>12.0f}"
        )
    lines.append(
        f"{'(unattributed)':<24}{ledger.unattributed_s / rounds:>10.4f}"
        f"{ledger.unattributed_s / total:>8.1%}"
    )
    lines.append("-- by phase: seconds a round, and the three layers that own most of it")
    for phase, layers in sorted(ledger.phases.items(), key=lambda item: -sum(item[1].values())):
        seconds = sum(layers.values())
        top = sorted(layers.items(), key=lambda item: -item[1])[:3]
        owners = ", ".join(
            f"{layer or '(unattributed)'} {busy / seconds:.0%}" for layer, busy in top if seconds
        )
        lines.append(f"{phase:<12}{seconds / rounds:>9.4f}s  {owners}")
    lines.append("-- who calls whom: self time by (caller layer -> layer)")
    for (caller, layer), (busy, calls) in sorted(
        ledger.edges.items(), key=lambda item: -item[1][0]
    )[:10]:
        lines.append(
            f"{caller or '(workload)':>22} -> {layer:<22}{busy / rounds:>9.4f}s"
            f"{busy / total:>7.1%}{calls / rounds:>11.0f} calls"
        )
    lines.append("-- ten slowest ops")
    for op, seconds, layers in ledger.slowest_ops(10):
        top = sorted(layers.items(), key=lambda item: -item[1])[:3]
        owners = ", ".join(f"{layer} {busy / seconds:.0%}" for layer, busy in top if seconds)
        lines.append(f"{str(op):<24}{seconds * 1e3 / rounds:>10.2f}ms  {owners}")
    return "\n".join(lines)


def git_state() -> tuple[str, bool]:
    """``(commit, dirty)``; ``("unknown", False)`` outside a git checkout."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip())
        return commit, dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def ledger_tables(ledger: Ledger, rounds: int) -> dict:
    """The ledger as JSON: seconds and calls per traced round."""
    n = max(1, rounds)
    return {
        "rounds": rounds,
        "round_s": ledger.total_s / n,
        "unattributed_s": ledger.unattributed_s / n,
        "busy_s": {layer: busy / n for layer, busy in sorted(ledger.busy.items())},
        "calls": {layer: calls / n for layer, calls in sorted(ledger.calls.items())},
        "names": {
            f"{layer}:{name}": [busy / n, calls / n]
            for (layer, name), (busy, calls) in sorted(ledger.names.items())
        },
        "edges": {
            f"{caller}>{layer}": [busy / n, calls / n]
            for (caller, layer), (busy, calls) in sorted(ledger.edges.items())
        },
        "phases": {
            phase: {layer or "(unattributed)": busy / n for layer, busy in sorted(layers.items())}
            for phase, layers in sorted(ledger.phases.items())
        },
    }


def collect(args: argparse.Namespace, workload) -> Collected:
    # WAL roots live under --out, else under this directory: a run writes
    # nowhere outside its checkout, and removes what it wrote.
    scratch = args.out if args.out is not None else HERE / ".work"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"ledger-{workload.name}-", dir=scratch))
    try:
        return run_rounds(workload, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if args.out is None and not any(scratch.iterdir()):
            scratch.rmdir()


def build_record(args: argparse.Namespace, workload, got: Collected) -> dict:
    """One run as a JSON-able record: verdict, metrics, digests, ledger."""
    name, rounds, trace = workload.name, got.rounds, bool(args.trace)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [error for r in rounds for error in r.errors]
    pinned = inputs.PINNED_INPUT_DIGESTS[args.size].get(name)
    if (
        args.seed == inputs.DEFAULT_SEED
        and args.scale == 1.0
        and pinned != workload.input_digest
    ):
        failed, attempted = failed + 1, attempted + 1
        errors.append(f"input digest {workload.input_digest} != pinned {pinned}")
    digests = sorted({r.detail["output_digest"] for r in rounds if "output_digest" in r.detail})
    if len(digests) > 1:
        failed, attempted = failed + 1, attempted + 1
        errors.append(f"rounds of one run disagree on their output: {digests}")
    record = {
        "workload": name,
        "seed": args.seed,
        "scale": args.scale,
        "size": args.size,
        "seconds": args.seconds,
        "trace": trace,
        "correct": failed == 0 and not got.crash,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "samples": {
            "rounds": len(rounds),
            "op_samples": sum(len(r.op_ms) for r in rounds),
            "write_samples": sum(len(r.write_ms) for r in rounds),
        },
        "input_digest": workload.input_digest,
        "output_digest": digests,
        # Every reported time is raw seconds times the round's clock factor
        # (clock.py); both are kept so the conversion can be checked or undone.
        "rounds": [
            {
                "traced": r.tracer is not None,
                "setup_s": r.setup_s / r.setups,
                "wall_s": r.wall_s,
                "raw_setup_s": r.raw_setup_s / r.setups,
                "raw_wall_s": r.raw_wall_s,
                "clock_factor": r.clock.mean_factor(),
            }
            for r in rounds
        ],
    }
    if trace:
        traced_count = len(got.traced_rounds())
        record["metrics"] = per_layer(got)
        record["layers"] = ledger_tables(got.ledger, traced_count)
        record["ledger_text"] = render_ledger(name, got.ledger, traced_count)
    else:
        record["metrics"] = end_to_end(name, rounds)
        record["detail"] = detail(name, rounds)
    return record


def print_record(record: dict) -> None:
    """Every metric as ``workload metric value unit``."""
    name, samples = record["workload"], record["samples"]
    if record["trace"]:
        print(record["ledger_text"])
    for metric, value in {**record["metrics"], **record.get("detail", {})}.items():
        note = ""
        if metric in spec.OP_PERCENTILES[name] and not record["trace"]:
            note = f"  (p{spec.OP_PERCENTILES[name][metric]} of {samples['op_samples']} samples)"
        elif metric == "write_p50_ms":
            note = f"  (p50 of {samples['write_samples']} samples)"
        elif metric in ("setup_s", "wall_s"):
            note = f"  (median of {samples['rounds']} rounds)"
        print(f"{name} {metric} {value['value']:.6g} {value['unit']}{note}")
    for key in ("raw_setup_s", "raw_wall_s", "clock_factor"):
        unit = "ratio" if key == "clock_factor" else "s"
        middle = _safe(statistics.median, [r[key] for r in record["rounds"]])
        print(f"{name} {key} {middle:.6g} {unit}  (median of {samples['rounds']} rounds)")
    attempted, failed = record["attempted"], record["failed"]
    share = failed / attempted if attempted else 1.0
    print(f"{name} failed_share {share:.6g} ratio  ({failed} of {attempted})")
    print(f"{name} input_digest {record['input_digest']}")
    for digest in record["output_digest"]:
        print(f"{name} output_digest {digest}")
    for error in record["errors"]:
        print(f"{name} FAILED {error}", file=sys.stderr)


def write_out(out: Path, record: dict, spans: list) -> None:
    """``run-*.json`` (or ``traced-*.json`` + ledger + raw trace) under ``out``."""
    kind = "traced" if record["trace"] else "run"
    stem = f"{kind}-{record['workload']}-{record['seed']}"
    index = 0
    while (out / f"{stem}-{index}.json").exists():
        index += 1
    body = {k: v for k, v in record.items() if k != "ledger_text"}
    (out / f"{stem}-{index}.json").write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    if record["trace"]:
        (out / f"ledger-{record['workload']}.txt").write_text(record["ledger_text"] + "\n")
        (out / f"trace-{record['workload']}.json").write_text(
            json.dumps({"fields": list(Span._fields), "spans": spans}) + "\n"
        )


def append_history(path: Path, record: dict) -> None:
    commit, dirty = git_state()
    line = {
        "commit": commit, "dirty": dirty, "seed": record["seed"], "scale": record["scale"],
        "size": record["size"], "workload": record["workload"], "trace": record["trace"], "correct": record["correct"],
        "metrics": {
            k: v["value"] for k, v in {**record["metrics"], **record.get("detail", {})}.items()
        },
    }
    for key in ("raw_setup_s", "raw_wall_s", "clock_factor"):
        line[key] = statistics.median(r[key] for r in record["rounds"])
    if record["trace"]:
        line["layers"] = record["layers"]["busy_s"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.size)
    got = collect(args, workload)
    record = build_record(args, workload, got)
    print_record(record)
    if args.out is not None:
        write_out(args.out, record, got.spans)
    if args.history is not None:
        append_history(args.history, record)
    # The contract's last line.
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, argv: list[str]) -> int:
    """Every workload, each in a process of its own: peak RSS, ``obs``,
    ``parallel`` and ``faults`` state start fresh, so order changes nothing."""
    status = 0
    for name in spec.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, *argv])
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args, argv)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
