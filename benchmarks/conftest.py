"""Benchmark harness plumbing.

Every benchmark regenerates one of the paper's tables or figures and
registers a human-readable report; the reports are printed in the
terminal summary (so ``pytest benchmarks/ --benchmark-only | tee ...``
captures them) and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE.parent / "src"), str(_HERE / "ledger")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from clock import MAX_BURST, Clock  # noqa: E402  (benchmarks/ledger/clock.py)

RESULTS_DIR = _HERE / "results"

_REPORTS: dict[str, str] = {}


def publish_report(name: str, text: str) -> None:
    """Register a table/figure report for the terminal summary + disk."""
    _REPORTS[name] = text
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


class reference_seconds:
    """Time a ``with`` block on the ledger's clock: ``raw_s`` is what
    ``perf_counter`` saw, ``ref_s`` the same converted to reference-speed
    seconds by a burst of its calibration loop either side of the block
    (``benchmarks/ledger/clock.py``), so ``check_ledger.py`` can hold it to
    an absolute budget on any host."""

    def __enter__(self) -> "reference_seconds":
        self._clock = Clock()
        self._clock.sample(MAX_BURST)
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = perf_counter() - self._started
        self._clock.sample(MAX_BURST)
        self.ref_s = self.raw_s * self._clock.factor(self._started + self.raw_s / 2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction reports")
    for name in sorted(_REPORTS):
        terminalreporter.write_sep("-", name)
        terminalreporter.write_line(_REPORTS[name])
