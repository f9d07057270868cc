"""repro.obs — tracing, events, time-series, SLOs, profiling, Prometheus.

The observability substrate for the serving stack: per-request span trees
with stage-attributed latency (:mod:`repro.obs.trace`), a bounded buffer
of structured operational events (:mod:`repro.obs.events`), the one
latency quantile sketch (:mod:`repro.obs.sketch`), rolling
fixed-interval telemetry windows (:mod:`repro.obs.timeseries`),
declarative SLOs with burn-rate alerting (:mod:`repro.obs.slo`), a
continuous sampling profiler (:mod:`repro.obs.profile`), the telemetry
core that server and router both inherit (:mod:`repro.obs.core`), and
Prometheus text rendering of the JSON metrics snapshots
(:mod:`repro.obs.prom`).

This package deliberately imports **nothing** from the rest of ``repro``
so every layer — costmodel kernels, serve, cluster, learn — can
instrument itself without import cycles.  ``python -m repro.obs
--selftest`` proves a traced request through a real server (and a real
2-shard cluster) produces a complete, well-nested span tree and that a
latency SLO breach drives the burn-rate state machine to page.
"""

from repro.obs.core import Telemetry
from repro.obs.events import (
    EventLog,
    KNOWN_KINDS,
    default_log,
    emit,
    set_default_log,
    snapshot,
)
from repro.obs.profile import SamplingProfiler, span_hotspots
from repro.obs.prom import render_prometheus
from repro.obs.sketch import LatencySketch
from repro.obs.slo import DEFAULT_SLOS, SLOSpec, SLOTracker, worst_state
from repro.obs.timeseries import MetricsSampler, TimeseriesRing
from repro.obs.trace import (
    Clock,
    FakeClock,
    MonotonicClock,
    Span,
    TraceHandle,
    Tracer,
    activate,
    current_handles,
    span,
    span_tree,
)

__all__ = [
    "Clock",
    "DEFAULT_SLOS",
    "EventLog",
    "FakeClock",
    "KNOWN_KINDS",
    "LatencySketch",
    "MetricsSampler",
    "MonotonicClock",
    "SLOSpec",
    "SLOTracker",
    "SamplingProfiler",
    "Span",
    "Telemetry",
    "TimeseriesRing",
    "TraceHandle",
    "Tracer",
    "activate",
    "current_handles",
    "default_log",
    "emit",
    "render_prometheus",
    "set_default_log",
    "snapshot",
    "span",
    "span_hotspots",
    "span_tree",
]
