"""ODS-style operational metrics: counters, gauges, and histograms.

Facebook tracks Robotron itself with ODS operational counters (the data
behind the paper's own evaluation, Figures 12-16); this module gives the
reproduction the same self-observability.  A :class:`MetricsRegistry`
holds *labeled series*: one logical metric name (``store.txn``) fans out
into one series per unique label set (``region="r1"`` vs ``region="r2"``).

Everything here is dependency-free and cheap.  When a registry is
disabled its factory methods return a shared no-op object, so call sites
can stay unconditional (``registry.counter("rpc.call").inc()``) without
paying for instrumentation that nobody is reading.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections import deque
from time import perf_counter
from typing import Any

from repro.common.util import percentile

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Latency buckets in seconds (50us .. 10s), the default for ``timed()``.
DEFAULT_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size buckets for count-valued histograms (rows per txn, devices per op).
COUNT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000)

#: Metric names follow ``<subsystem>.<event>``: lowercase dotted segments.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_-]+)+$")

#: One process-wide lock covers series creation and every read-modify-
#: write update.  Worker-pool tasks record metrics concurrently; without
#: the lock, ``value += amount`` and bucket increments lose updates (and
#: the deterministic chaos dumps would disagree across worker counts).
_series_lock = threading.Lock()


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _SeriesBase:
    """Common identity plumbing for one labeled series."""

    __slots__ = ("name", "labels")
    kind = "metric"

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels

    def label_str(self) -> str:
        if not self.labels:
            return "-"
        return ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.label_str()}>"


class Counter(_SeriesBase):
    """A monotonically increasing count (events, rows, failures)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with _series_lock:
            self.value += amount


class Gauge(_SeriesBase):
    """A point-in-time level (replication lag, queue depth)."""

    __slots__ = ("value", "updated_at")
    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0
        self.updated_at: float | None = None

    def set(self, value: float, *, at: float | None = None) -> None:
        with _series_lock:
            self.value = float(value)
            self.updated_at = at

    def inc(self, amount: float = 1.0) -> None:
        with _series_lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with _series_lock:
            self.value -= amount


class Histogram(_SeriesBase):
    """A distribution: fixed buckets plus streaming percentiles.

    Bucket counts are exact; percentiles come from a bounded reservoir of
    the most recent ``reservoir`` observations (via
    :func:`repro.common.util.percentile`), so memory stays constant no
    matter how long a simulation runs.
    """

    __slots__ = (
        "buckets", "bucket_counts", "count", "total", "min", "max", "_samples",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        reservoir: int = 1024,
    ):
        super().__init__(name, labels)
        self.buckets = tuple(sorted(buckets))
        # One count per bucket upper-bound, plus a final overflow bucket.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: deque[float] = deque(maxlen=reservoir)

    def observe(self, value: float) -> None:
        value = float(value)
        with _series_lock:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._samples.append(value)

    def percentile(self, pct: float) -> float:
        """Percentile over the recent-sample reservoir (nearest rank)."""
        return percentile(sorted(self._samples), pct)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": self.min or 0.0,
            "max": self.max or 0.0,
            "p50": percentile(ordered, 50),
            "p95": percentile(ordered, 95),
            "p99": percentile(ordered, 99),
        }


class _Noop:
    """Absorbs every metric/span/timer operation when obs is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float, *, at: float | None = None) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> _Noop:
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NOOP = _Noop()


class _Timer:
    """Times a ``with`` block into a histogram (wall seconds)."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> _Timer:
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._hist.observe(perf_counter() - self._start)


class MetricsRegistry:
    """All live metric series for one process, keyed by (name, labels)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], _SeriesBase] = {}
        #: ``(kind, name, *labels.items())`` as a call site spelled it ->
        #: its series: in front of the canonical key above, so a repeat
        #: call neither sorts nor ``str()``s its labels.  Only spellings
        #: whose label values are all plain ``str`` are kept: values that
        #: hash equal yet print differently (``1``, ``1.0``, ``True``)
        #: would share an entry, and a plain string prints as itself.
        self._spelled: dict[tuple, _SeriesBase] = {}

    # -- series factories ----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter | _Noop:
        if not self.enabled:
            return NOOP
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge | _Noop:
        if not self.enabled:
            return NOOP
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram | _Noop:
        if not self.enabled:
            return NOOP
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def timed(self, name: str, **labels: Any) -> _Timer | _Noop:
        """Context manager observing the block's wall time into ``name``."""
        if not self.enabled:
            return NOOP
        return _Timer(self._get_or_create(Histogram, name, labels))

    def _get_or_create(
        self,
        kind: type,
        name: str,
        labels: dict[str, Any],
        buckets: tuple[float, ...] | None = None,
    ) -> Any:
        spelled = None
        for value in labels.values():
            if value.__class__ is not str:
                break
        else:
            spelled = (kind, name, *labels.items())
            series = self._spelled.get(spelled)
            if series is not None:
                return series
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"metric name {name!r} must follow <subsystem>.<event> "
                    "(lowercase dotted segments)"
                )
            label_strs = {k: str(v) for k, v in labels.items()}
            with _series_lock:
                series = self._series.get(key)
                if series is None:
                    if kind is Histogram:
                        series = Histogram(
                            name, label_strs, buckets or DEFAULT_BUCKETS
                        )
                    else:
                        series = kind(name, label_strs)
                    self._series[key] = series
        if not isinstance(series, kind):
            raise ValueError(
                f"metric {name!r} is a {series.kind}, not a {kind.__name__.lower()}"
            )
        if spelled is not None:
            self._spelled[spelled] = series
        return series

    # -- introspection -------------------------------------------------------

    def series(self) -> list[_SeriesBase]:
        """Every live series, ordered by (name, labels)."""
        return [
            self._series[key] for key in sorted(self._series, key=lambda k: (k[0], k[1]))
        ]

    def get(self, name: str, **labels: Any) -> _SeriesBase | None:
        """Look up an existing series without creating it."""
        return self._series.get((name, _label_key(labels)))

    def names(self) -> set[str]:
        return {name for name, _ in self._series}

    def reset(self) -> None:
        self._series.clear()
        self._spelled.clear()

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """A JSON-serializable dump of every series."""
        out: dict[str, list[dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        for series in self.series():
            entry: dict[str, Any] = {"name": series.name, "labels": series.labels}
            if isinstance(series, Counter):
                entry["value"] = series.value
                out["counters"].append(entry)
            elif isinstance(series, Gauge):
                entry["value"] = series.value
                entry["updated_at"] = series.updated_at
                out["gauges"].append(entry)
            else:
                assert isinstance(series, Histogram)
                entry.update(series.summary())
                out["histograms"].append(entry)
        return out
