"""The ledger's arithmetic, kept out of ``src/`` so a ``src/`` edit cannot
change how a number is computed."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A percentile above the median is reported only with this many samples
#: beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail the sample cannot support.

    The median is always allowed.  Anything higher needs
    :data:`MIN_BEYOND` samples beyond it, or the number is one outlier's
    latency, not a percentile.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 50 <= pct < 100:
        raise ValueError(f"percentile must be in [50, 100), not {pct}")
    count = len(samples)
    if pct > 50 and count * (100 - pct) / 100 < MIN_BEYOND:
        needed = math.ceil(MIN_BEYOND * 100 / (100 - pct))
        raise ValueError(
            f"p{pct:g} needs {needed} samples ({MIN_BEYOND} beyond it), have {count}"
        )
    if pct == 50:
        return statistics.median(samples)
    ordered = sorted(samples)
    return ordered[min(count, math.ceil(pct / 100 * count)) - 1]


def samples_needed(pct: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``pct``."""
    return 1 if pct == 50 else math.ceil(MIN_BEYOND * 100 / (100 - pct))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
