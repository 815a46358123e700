"""Shape -> plan tally: which query shapes the store scans, and how often.

    python3 benchmarks/plan_tally.py [--root CHECKOUT] [--workload NAME ...]
        [--seed 1337] [--label TEXT] [--out FILE]

Runs one round of each layer-ledger workload (``benchmarks/ledger``, budget
size) with a wrapper on the four query verbs of both store classes, and
prints, per workload, one line per ``(model, query shape, plan)`` with the
call count and the seconds spent.  The plan is read off the store's own
planner counters around each call, so the same script measures any
checkout — ``--root`` names the one whose ``src/`` and ``benchmarks/ledger``
are used (default: the checkout this file is in):

* ``fanout``        ``store.planner.fanout`` moved: every shard was scanned
* ``single_shard``  ``store.planner.single_shard`` moved: one shard answered
* ``scan``          ``store.planner.scan`` moved on an unsharded store
* ``uncounted``     none moved: an index hit spanning shards or on an
  unsharded store — or a verb the checkout's planner does not count

Nothing under ``src/`` or ``benchmarks/ledger`` is modified; seconds include
the wrapper and are for ranking shapes, not for comparing checkouts.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

VERBS = ("filter", "count", "exists", "first")


def shape(query) -> str:
    """A query with its values dropped: ``Or(device ==, peer_device ==)``."""
    if query is None:
        return "all"
    children = getattr(query, "children", None)
    if children is not None:
        return f"{type(query).__name__}({', '.join(shape(c) for c in children)})"
    if hasattr(query, "child"):
        return f"Not({shape(query.child)})"
    many = " IN" if len(query.rvalues) > 1 else ""
    return f"{query.field} {query.op.value}{many}"


class Tally:
    """Wraps the query verbs; the outermost call on a store is the one tallied."""

    def __init__(self, obs, classes):
        self._obs = obs
        self._depth = 0
        self._patched = []
        #: (model, shape, plan) -> [calls, seconds, verbs seen]
        self.rows: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, set()])
        for cls in classes:
            for verb in VERBS:
                raw = vars(cls).get(verb)
                if raw is not None:
                    setattr(cls, verb, self._wrap(raw, verb))
                    self._patched.append((cls, verb, raw))

    def _counters(self, store, model) -> tuple[float, float, float]:
        counter = self._obs.counter
        return (
            counter("store.planner.fanout", store=store.name, shard="s00").value,
            counter("store.planner.single_shard", store=store.name).value,
            counter("store.planner.scan", store=store.name, model=model.__name__).value,
        )

    def _wrap(self, raw, verb):
        def tallied(store, model, query=None):
            if self._depth:
                return raw(store, model, query)
            before = self._counters(store, model)
            self._depth += 1
            started = perf_counter()
            try:
                return raw(store, model, query)
            finally:
                elapsed = perf_counter() - started
                self._depth -= 1
                moved = [b > a for a, b in zip(before, self._counters(store, model))]
                plan = (
                    "fanout" if moved[0]
                    else "single_shard" if moved[1]
                    else "scan" if moved[2]
                    else "uncounted"
                )
                row = self.rows[(model.__name__, shape(query), plan)]
                row[0] += 1
                row[1] += elapsed
                row[2].add(verb)

        return tallied

    def uninstall(self) -> None:
        for cls, verb, raw in reversed(self._patched):
            setattr(cls, verb, raw)

    def render(self) -> list[str]:
        lines = [f"{'calls':>7} {'seconds':>8}  plan          model / shape (verbs)"]
        ranked = sorted(self.rows.items(), key=lambda item: -item[1][1])
        for (model, query_shape, plan), (calls, seconds, verbs) in ranked:
            lines.append(
                f"{calls:7d} {seconds:8.3f}  {plan:<13} {model}: {query_shape} "
                f"({'/'.join(sorted(verbs))})"
            )
        by_plan: dict[str, int] = defaultdict(int)
        for (_model, _shape, plan), (calls, _seconds, _verbs) in self.rows.items():
            by_plan[plan] += calls
        lines.append("totals: " + ", ".join(f"{p}={by_plan[p]}" for p in sorted(by_plan)))
        return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--label", help="names the checkout in the header (default: its path)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "ledger")]
    from repro import obs
    from repro.fbnet.sharding import ShardedObjectStore
    from repro.fbnet.store import ObjectStore
    from workloads import WORKLOADS, Round, fresh_process_state

    # The ledger's own (gitignored) scratch directory holds the WAL roots.
    scratch = root / "benchmarks" / "ledger" / ".work"
    scratch.mkdir(exist_ok=True)
    lines = [f"# shape -> plan tally; {args.label or root}; seed {args.seed}; budget size"]
    for name in args.workload or ("turnup", "churn", "monitor", "frontdoor"):
        workload = WORKLOADS[name](args.seed)
        workdir = Path(tempfile.mkdtemp(prefix=f"plan-tally-{name}-", dir=scratch))
        fresh_process_state()
        tally = Tally(obs, (ObjectStore, ShardedObjectStore))
        try:
            rnd = Round(None)
            workload.run_round(rnd, workdir)
            rnd.finish()
        finally:
            tally.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
        lines += ["", f"## {name} ({workload.devices} devices, failed ops: {rnd.failed})"]
        lines += tally.render()
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
