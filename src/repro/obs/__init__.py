"""repro.obs — ODS-style self-telemetry for the Robotron reproduction.

The paper's Robotron is itself a monitored system: Facebook's ODS
counters over the management pipeline are the data source for the
paper's own evaluation (section 6).  This package is the reproduction's
equivalent: a process-global :class:`~repro.obs.metrics.MetricsRegistry`
(counters, gauges, histograms with labeled series), a structured tracer
producing nested :class:`~repro.obs.trace.Span` records, and exporters
(:func:`report` dashboard, :func:`dump_json` feed for ``benchmarks/``).

Usage from any subsystem::

    from repro import obs

    obs.counter("store.txn", store="fbnet").inc()
    with obs.timed("rpc.latency", method="get"):
        ...
    with obs.span("deploy.initial_provision", devices=12) as sp:
        sp.set_attribute("failed", 0)

Metric names follow ``<subsystem>.<event>`` (e.g. ``store.txn``,
``rpc.call``, ``configgen.render``, ``deploy.device``,
``monitoring.job.run``).  Instrumentation is on by default; call
:func:`disable` to turn every call site into a no-op (tests guard that
the disabled paths add no measurable overhead), and :func:`reset` to
wipe state between tests.
"""

from __future__ import annotations

from typing import Any

from repro.obs import export as _export
from repro.obs import flight
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, TraceSink, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceSink",
    "Tracer",
    "counter",
    "deterministic_dump",
    "disable",
    "dump_json",
    "enable",
    "enabled",
    "export_chrome_trace",
    "flight",
    "gauge",
    "histogram",
    "registry",
    "report",
    "reset",
    "set_sim_clock",
    "snapshot",
    "span",
    "timed",
    "tracer",
]

_registry = MetricsRegistry()
_tracer = Tracer()
flight._set_tracer(_tracer)


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The process-global tracer."""
    return _tracer


# -- enable / disable / reset ------------------------------------------------


def enable() -> None:
    """Turn instrumentation on (the default)."""
    _registry.enabled = True
    _tracer.enabled = True
    flight.recorder().enabled = True


def disable() -> None:
    """Turn every instrumentation call site into a no-op."""
    _registry.enabled = False
    _tracer.enabled = False
    flight.recorder().enabled = False


def enabled() -> bool:
    return _registry.enabled


def reset() -> None:
    """Wipe all metrics, spans, flight events, and the sim clock; re-enable.
    Test hook."""
    _registry.reset()
    _registry.enabled = True
    _tracer.reset()
    _tracer.enabled = True
    _tracer.sim_clock = None
    flight.reset()


# -- metrics -----------------------------------------------------------------
# The registry is made once and never replaced, so the verbs are its bound
# methods: a labelled call site pays for one call, not two.

counter = _registry.counter
gauge = _registry.gauge
histogram = _registry.histogram
timed = _registry.timed


# -- tracing -----------------------------------------------------------------


def span(name: str, **attributes: Any):
    """Open a traced span; nests under any currently-open span."""
    return _tracer.span(name, **attributes)


def set_sim_clock(clock: Any | None) -> None:
    """Attach the simulation clock so spans also record simulated time."""
    _tracer.set_sim_clock(clock)


# -- export ------------------------------------------------------------------


def report(*, max_trace_roots: int = 20) -> str:
    """The ODS-style text dashboard over all metrics and the span tree."""
    return _export.render_report(_registry, _tracer.sink, max_trace_roots=max_trace_roots)


def snapshot() -> dict[str, Any]:
    """A JSON-serializable dict of all metrics and span records."""
    return _export.snapshot(_registry, _tracer.sink)


def dump_json(path: str | None = None, *, indent: int | None = 2) -> str:
    """Serialize the snapshot to JSON; optionally also write it to ``path``."""
    text = _export.render_json(_registry, _tracer.sink, indent=indent)
    if path is not None:
        from pathlib import Path

        Path(path).write_text(text + "\n")
    return text


def deterministic_dump() -> dict[str, Any]:
    """Counters + histogram counts only — identical at any worker count.

    The chaos CI matrix compares this (serialized) dump bit-for-bit
    between ``ROBOTRON_WORKERS=1`` and ``=4`` runs; see
    :func:`repro.obs.export.deterministic_dump` for what is excluded.
    """
    return _export.deterministic_dump(_registry)


def export_chrome_trace(path: str | None = None) -> dict[str, Any]:
    """The span tree (plus flight events) in Chrome Trace Event format.

    Load the written file in ``chrome://tracing`` or Perfetto to inspect
    the run as a real flame chart; flight events appear as instants
    carrying their change id and linked span id.
    """
    return _export.export_chrome_trace(
        _tracer.sink, flight.timeline(), path=path
    )
