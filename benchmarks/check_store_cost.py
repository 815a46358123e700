"""Gate on a traced ``turnup`` ledger: the store's per-call budget.

    python3 benchmarks/ledger/run.py --workload turnup --seconds 1 --trace --out DIR
    python3 benchmarks/check_store_cost.py DIR

Fails if a call into ``fbnet.store.write`` costs more than 14 us or one into
``fbnet.store.read`` more than 20 us of self time, in the ledger's
reference-speed seconds (``benchmarks/ledger/clock.py`` divides the
machine's speed out, so the budget means the same on a CI runner as here).
They were 16.6 and 26.1 us while the store re-derived schema facts per row
and per query, and are about 12.6 and 16.7 us with those resolved once
(``benchmarks/results/ledger_pr17.txt``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: layer -> microseconds of self time one call may cost
BUDGET_US = {"fbnet.store.write": 14.0, "fbnet.store.read": 20.0}


def check(out: Path) -> list[str]:
    [path] = out.glob("traced-turnup-*.json")
    layers = json.loads(path.read_text())["layers"]
    problems = []
    for layer, limit_us in BUDGET_US.items():
        calls = layers["calls"][layer]
        per_call_us = layers["busy_s"][layer] / calls * 1e6
        print(f"{layer}: {per_call_us:.1f} us a call over {calls:.0f} calls (limit {limit_us:.0f})")
        if per_call_us > limit_us:
            problems.append(f"{layer} costs {per_call_us:.1f} us a call, over {limit_us:.0f}")
    return problems


if __name__ == "__main__":
    failures = check(Path(sys.argv[1]))
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)
