"""Gate on the size of ``src/``: the line count may fall, never rise.

    python3 benchmarks/check_src_lines.py

Counts the physical lines of ``src/**/*.py`` (what ``find src -name '*.py'
| xargs cat | wc -l`` prints) and fails when the count exceeds the number
committed in ``benchmarks/results/src_lines.txt``.  A PR that shrinks
``src/`` commits the lower number, which the next PR is then held to
(ROADMAP item 6e).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET = ROOT / "benchmarks" / "results" / "src_lines.txt"


def src_lines() -> int:
    return sum(
        path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py")
    )


if __name__ == "__main__":
    budget, lines = int(BUDGET.read_text().split()[0]), src_lines()
    print(f"src/: {lines} lines (budget {budget})")
    if lines > budget:
        print(f"FAIL src/ grew by {lines - budget} lines; delete them or raise the budget on purpose")
    elif lines < budget:
        print(f"src/ shrank: lower {BUDGET.relative_to(ROOT)} to {lines}")
    sys.exit(1 if lines > budget else 0)
