"""Reference-speed time: wall time with the host's speed divided out.

The sandbox this benchmark runs in is a shared VM whose effective CPU
speed wanders by +-25% over seconds to minutes.  Raw ``perf_counter``
durations of a 10-second run then spread by 12-15% from run to run (the
README has the sweep) — too close to any bound worth setting.  The repo's
pytest benches already scale wall times by a calibration loop once per
session; the ledger does the same thing at a finer grain:

* between timed regions — never inside one — a fixed calibration loop is
  timed, at most every :data:`INTERVAL` seconds and after any region
  longer than that (up to :data:`MAX_BURST` loops after a long one);
* a region's duration is multiplied by ``REFERENCE_S / local calibration``
  (interpolated at the region's midpoint), i.e. converted to what it would
  have taken had the host run at the reference speed throughout.

Every time the ledger reports — seconds, milliseconds, ops per second —
is in these reference-speed units; on the baseline machine at its typical
speed they equal wall-clock units.  The raw seconds and the factor of
every round are written out beside them (``run.py``), so the conversion
can be checked or undone.  The factor stands for CPU time the host took
away, which slows C code and page-cache writes as it slows bytecode; it is
relative to this interpreter, so compare runs of one Python only.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from time import perf_counter

#: Seconds the calibration loop takes at reference speed: its median on
#: the baseline machine (see README), pinned so the units do not move.
REFERENCE_S = 0.0100

#: Calibrate at most this often (wall seconds), and around longer regions.
INTERVAL = 0.1

#: Most loops averaged into the point taken after a long region.
MAX_BURST = 4

_ROUNDS = 36_000


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter work (no I/O, no ``src/``):
    integer arithmetic, dict stores and lookups, small allocations."""
    # The collector is held off: the workload's allocations have usually
    # left a collection pending, and a 200 ms sweep of its heap landing in
    # a 10 ms loop would read as the host having stalled.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        table: dict[int, list] = {}
        total = 0
        for i in range(_ROUNDS):
            key = (i * 7919) % 1009
            table[key] = [i, total]
            total += table[(key * 31) % 1009][0] if (key * 31) % 1009 in table else i % 7
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """The calibration samples of one round and the factor they imply."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._values: list[float] = []

    def sample(self, burst: int = 1) -> None:
        """One calibration point: the mean of ``burst`` back-to-back loops."""
        started = perf_counter()
        value = sum(calibrate() for _ in range(burst)) / burst
        self._times.append((started + perf_counter()) / 2)
        self._values.append(value)

    def sample_after(self, elapsed: float) -> None:
        """Calibrate after a region that took ``elapsed`` seconds, if it was
        long enough to need a point of its own — and longer for a long
        region, whose one factor has to stand for more time."""
        if elapsed >= INTERVAL:
            self.sample(burst=min(MAX_BURST, max(1, round(elapsed / (1.5 * INTERVAL)))))

    def sample_if_due(self) -> None:
        if not self._times or perf_counter() - self._times[-1] >= INTERVAL:
            self.sample()

    def factor(self, at: float) -> float:
        """Multiply a duration around wall time ``at`` by this."""
        times, values = self._times, self._values
        if not times:
            return 1.0
        index = bisect_left(times, at)
        if index == 0:
            local = values[0]
        elif index == len(times):
            local = values[-1]
        else:
            before, after = times[index - 1], times[index]
            weight = (at - before) / (after - before) if after > before else 0.5
            local = values[index - 1] * (1 - weight) + values[index] * weight
        return REFERENCE_S / local

    def mean_factor(self) -> float:
        """The round's overall factor (scales a traced round's ledger)."""
        if not self._values:
            return 1.0
        return REFERENCE_S / statistics.median(self._values)
