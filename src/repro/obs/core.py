"""One owner for a front door's telemetry wiring and its local views.

:class:`~repro.serve.server.MappingServer` and
:class:`~repro.cluster.router.ClusterRouter` both inherit
:class:`Telemetry`.  It builds the tracer, the window ring, the SLO
tracker, the sampler that feeds the ring and evaluates the SLOs, and the
optional sampling profiler from the config fields the serve and cluster
configs share (``tracing``, ``trace_capacity``,
``timeseries_interval_s``, ``timeseries_capacity``,
``sample_interval_s``, ``slos``), which :func:`check_telemetry_config`
validates for both.  It starts and stops the background threads and
answers the local trace, events, timeseries, SLO and profile views; the
router overrides the views that also gather its shards.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import events as obs_events
from repro.obs.profile import SamplingProfiler, span_hotspots
from repro.obs.slo import SLOTracker
from repro.obs.timeseries import MetricsSampler, TimeseriesRing
from repro.obs.trace import Clock, Tracer


def check_telemetry_config(config) -> None:
    """Validate the telemetry fields both configs share, and freeze
    ``slos`` to a tuple so the config pickles across the cluster's spawn
    boundary."""
    for name, bound, strict in (("trace_capacity", 1, False),
                                ("timeseries_interval_s", 0, True),
                                ("timeseries_capacity", 2, False),
                                ("sample_interval_s", 0, True)):
        value = getattr(config, name)
        if value <= bound if strict else value < bound:
            raise ValueError(
                f"{name} must be {'>' if strict else '>='} {bound}, "
                f"got {value}"
            )
    config.slos = tuple(config.slos)


class Telemetry:
    """The observability components of one front door, and its views.

    ``counters`` returns the owner's cumulative counters; the sampler
    pulls them with the owner's ``queue_depth`` as a gauge.  A
    ``profile_interval_s`` adds a :class:`SamplingProfiler` sampling at
    that interval.
    """

    def __init__(
        self,
        config,
        counters: Callable[[], Mapping[str, int]],
        clock: Optional[Clock] = None,
        profile_interval_s: Optional[float] = None,
    ) -> None:
        self.tracer = Tracer(
            clock=clock, enabled=config.tracing,
            max_traces=config.trace_capacity,
        )
        self.timeseries = TimeseriesRing(
            interval_s=config.timeseries_interval_s,
            capacity=config.timeseries_capacity,
            clock=clock,
        )
        self.slo = SLOTracker(config.slos, self.timeseries)
        self._cumulative_counters = counters
        self._sampler = MetricsSampler(
            self._observability_sample,
            self.timeseries,
            listeners=[self.slo.evaluate],
            interval_s=config.sample_interval_s,
            clock=clock,
        )
        self.profiler: Optional[SamplingProfiler] = None
        if profile_interval_s is not None:
            self.profiler = SamplingProfiler(interval_s=profile_interval_s)

    def _start_telemetry(self) -> None:
        self._sampler.start()
        if self.profiler is not None:
            self.profiler.start()

    def _stop_telemetry(self) -> None:
        self._sampler.stop()
        if self.profiler is not None:
            self.profiler.stop()

    def _observability_sample(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """The sampler's pull: cumulative counters + point-in-time gauges."""
        counters = {name: float(value)
                    for name, value in self._cumulative_counters().items()}
        return counters, {"queue_depth": float(self.queue_depth)}

    def sample_observability(self) -> None:
        """Force one sampler pull + SLO evaluation (tests, selftests, and
        snapshot freshness; the background cadence still runs)."""
        self._sampler.sample()

    def trace_snapshot(self, trace_id: str) -> Optional[Dict[str, object]]:
        """The span tree the gateway serves at ``/v1/trace/<id>``."""
        return self.tracer.snapshot(trace_id)

    def events_snapshot(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Recent structured events (swap published, 429s, ...)."""
        return obs_events.snapshot(kind=kind, limit=limit)

    def timeseries_snapshot(
        self, metric: Optional[str] = None, windows: Optional[int] = None
    ) -> Dict[str, object]:
        """The rolling-window view the gateway serves at
        ``/v1/timeseries`` (fresh: pulls the counters first so the
        current window reflects everything served so far)."""
        self.sample_observability()
        return self.timeseries.snapshot(metric=metric, windows=windows)

    def slo_snapshot(self) -> Dict[str, object]:
        """The objective/burn/alert view the gateway serves at
        ``/v1/slo`` (fresh: samples + evaluates before reporting)."""
        self.sample_observability()
        return self.slo.snapshot()

    def profile_snapshot(self, limit: Optional[int] = 50) -> Dict[str, object]:
        """The profiler view the gateway serves at ``/v1/profile``:
        collapsed stacks (when profiling is on) + span-derived hotspot
        tables (always available while tracing)."""
        payload: Dict[str, object] = {
            "enabled": self.profiler is not None,
            "hotspots": span_hotspots(self.tracer),
        }
        if self.profiler is not None:
            payload["profiler"] = self.profiler.snapshot(limit)
        return payload


__all__ = ["Telemetry", "check_telemetry_config"]
