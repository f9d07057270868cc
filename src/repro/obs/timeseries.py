"""Rolling time-series telemetry: a bounded ring of fixed-interval windows.

The metrics registry answers "how much since boot"; this module answers
"how much *per second, right now*".  Time is cut into fixed-interval
windows keyed by an injected :class:`~repro.obs.trace.Clock`; each window
accumulates

* **counter deltas** — a :class:`MetricsSampler` periodically pulls a
  cumulative counter snapshot and attributes the delta since its previous
  pull to the current window, so ``delta / interval`` is a rate;
* **a latency sketch** — a :class:`~repro.obs.sketch.LatencySketch`
  (exact count/sum/min/max, p50/p95/p99 within 1%), beside the window's
  *exact* over-threshold counts for every registered SLO threshold;
* **batch-size stats** — count/sum/max of served batch sizes.

The ring is bounded (``capacity`` windows, oldest evicted) and windows
with no observations simply do not exist — an absent window reads as
zero activity, which keeps idle periods free.  Everything is driven by
the one injected clock, so tests roll windows with
:class:`~repro.obs.trace.FakeClock` and never sleep; the only real-time
component is the optional sampler thread, which merely *calls*
:meth:`MetricsSampler.sample` on a cadence.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of ``repro`` — the serving and cluster layers feed it, never the
other way around.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.obs.sketch import LatencySketch
from repro.obs.trace import Clock, MonotonicClock, Periodic

class _Window:
    """One fixed-interval window's accumulators (guarded by the ring lock)."""

    __slots__ = ("index", "start_s", "counters", "gauges", "latency", "over",
                 "batch_count", "batch_sum", "batch_max")

    def __init__(self, index: int, start_s: float) -> None:
        self.index = index
        self.start_s = start_s
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.latency = LatencySketch()
        #: SLO key -> latencies strictly above its registered threshold.
        self.over: Dict[str, int] = {}
        self.batch_count = 0
        self.batch_sum = 0
        self.batch_max = 0


class TimeseriesRing:
    """Thread-safe bounded ring of fixed-interval telemetry windows.

    All timestamps come from the injected ``clock``; the window an
    observation lands in is ``floor((now - epoch) / interval)`` where
    ``epoch`` is the clock reading at construction.  The newest
    ``capacity`` windows are retained.
    """

    def __init__(self, interval_s: float = 1.0, capacity: int = 180,
                 clock: Optional[Clock] = None) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._epoch = self.clock()
        self._lock = threading.Lock()
        self._windows: "OrderedDict[int, _Window]" = OrderedDict()
        self._thresholds: Dict[str, float] = {}
        self._last_cumulative: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Registration + hot-path feeds
    # ------------------------------------------------------------------

    def register_threshold(self, key: str, threshold_s: float) -> None:
        """Track exact per-window counts of latencies above ``threshold_s``
        under ``key`` (idempotent; SLO trackers register their bounds)."""
        with self._lock:
            self._thresholds[str(key)] = float(threshold_s)

    def window_index(self, now: Optional[float] = None) -> int:
        if now is None:
            now = self.clock()
        return int((now - self._epoch) // self.interval_s)

    def _window_locked(self, now: float) -> _Window:
        index = self.window_index(now)
        window = self._windows.get(index)
        if window is None:
            window = _Window(index, self._epoch + index * self.interval_s)
            self._windows[index] = window
            while len(self._windows) > self.capacity:
                self._windows.popitem(last=False)
        return window

    def observe_latency(self, seconds: float,
                        now: Optional[float] = None) -> None:
        if now is None:
            now = self.clock()
        seconds = float(seconds)
        with self._lock:
            window = self._window_locked(now)
            window.latency.observe(seconds)
            for key, threshold_s in self._thresholds.items():
                if seconds > threshold_s:
                    window.over[key] = window.over.get(key, 0) + 1

    def observe_batch(self, size: int, now: Optional[float] = None) -> None:
        if now is None:
            now = self.clock()
        size = int(size)
        with self._lock:
            window = self._window_locked(now)
            window.batch_count += 1
            window.batch_sum += size
            window.batch_max = max(window.batch_max, size)

    def record_counters(self, cumulative: Mapping[str, float],
                        now: Optional[float] = None) -> None:
        """Attribute deltas of a *cumulative* counter snapshot (vs the
        previous call) to the current window.  Negative deltas (a counter
        reset upstream) are clamped to zero rather than corrupting rates."""
        if now is None:
            now = self.clock()
        with self._lock:
            window = self._window_locked(now)
            for name in sorted(cumulative):
                value = float(cumulative[name])
                delta = value - self._last_cumulative.get(name, 0.0)
                self._last_cumulative[name] = value
                if delta > 0:
                    window.counters[name] = window.counters.get(name, 0.0) + delta

    def record_gauges(self, gauges: Mapping[str, float],
                      now: Optional[float] = None) -> None:
        """Record point-in-time gauges (last sample in the window wins)."""
        if now is None:
            now = self.clock()
        with self._lock:
            window = self._window_locked(now)
            for name in sorted(gauges):
                window.gauges[name] = float(gauges[name])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def totals(self, horizon_s: float,
               now: Optional[float] = None) -> Dict[str, object]:
        """Aggregate the windows covering the last ``horizon_s`` seconds:
        summed counter deltas, latency count, and over-threshold counts.
        The SLO tracker's one read."""
        if now is None:
            now = self.clock()
        first = self.window_index(now - max(horizon_s - self.interval_s, 0.0))
        counters: Dict[str, float] = {}
        latency_count = 0
        over: Dict[str, int] = {}
        with self._lock:
            for index, window in self._windows.items():
                if index < first or index > self.window_index(now):
                    continue
                for name, delta in window.counters.items():
                    counters[name] = counters.get(name, 0.0) + delta
                latency_count += window.latency.count
                for key, count in window.over.items():
                    over[key] = over.get(key, 0) + count
        return {"counters": counters, "latency_count": latency_count,
                "over_threshold": over}

    def _window_snapshot_locked(self, window: _Window,
                                now: float) -> Dict[str, object]:
        end_s = window.start_s + self.interval_s
        complete = now >= end_s
        elapsed = self.interval_s if complete else max(now - window.start_s,
                                                       1e-9)
        latency = window.latency.snapshot()
        if window.over:
            latency["over_threshold"] = {key: window.over[key]
                                         for key in sorted(window.over)}
        return {
            "index": window.index,
            "start_s": window.start_s,
            "end_s": end_s,
            "complete": complete,
            "counters": {name: window.counters[name]
                         for name in sorted(window.counters)},
            "rates": {name: window.counters[name] / elapsed
                      for name in sorted(window.counters)},
            "gauges": {name: window.gauges[name]
                       for name in sorted(window.gauges)},
            "latency": latency,
            "batch": {
                "count": window.batch_count,
                "mean": (window.batch_sum / window.batch_count
                         if window.batch_count else None),
                "max": window.batch_max,
            },
        }

    def snapshot(self, metric: Optional[str] = None,
                 windows: Optional[int] = None,
                 now: Optional[float] = None) -> Dict[str, object]:
        """The ``/v1/timeseries`` body: newest-last window dicts.

        ``windows`` truncates to the most recent N; ``metric`` projects a
        dotted path (``"rates.served"``, ``"latency.p95_ms"``) into a
        compact ``{"index", "start_s", "end_s", "complete", "value"}``
        series.  Unknown paths raise ``KeyError`` (the gateway maps that
        to 400).
        """
        if now is None:
            now = self.clock()
        with self._lock:
            rendered = [self._window_snapshot_locked(window, now)
                        for window in self._windows.values()]
        rendered.sort(key=lambda w: w["index"])
        if windows is not None:
            if windows < 0:
                raise ValueError(f"windows must be >= 0, got {windows}")
            rendered = rendered[len(rendered) - min(windows, len(rendered)):]
        payload: Dict[str, object] = {
            "interval_s": self.interval_s,
            "capacity": self.capacity,
            "now_s": now,
        }
        if metric is None:
            payload["windows"] = rendered
            return payload
        series = []
        for window in rendered:
            value: object = window
            for part in str(metric).split("."):
                if not isinstance(value, dict) or part not in value:
                    raise KeyError(
                        f"unknown metric path {metric!r} "
                        f"(no {part!r} component)"
                    )
                value = value[part]
            series.append({"index": window["index"],
                           "start_s": window["start_s"],
                           "end_s": window["end_s"],
                           "complete": window["complete"],
                           "value": value})
        payload["metric"] = str(metric)
        payload["series"] = series
        return payload

    def latest_rates(self, now: Optional[float] = None) -> Dict[str, object]:
        """The newest *complete* window's rates + latency sketch (falling
        back to the partial current window), for Prometheus gauges."""
        if now is None:
            now = self.clock()
        with self._lock:
            candidates = sorted(self._windows)
            chosen: Optional[_Window] = None
            for index in reversed(candidates):
                window = self._windows[index]
                if now >= window.start_s + self.interval_s:
                    chosen = window
                    break
            if chosen is None and candidates:
                chosen = self._windows[candidates[-1]]
            if chosen is None:
                return {}
            return self._window_snapshot_locked(chosen, now)


class MetricsSampler(Periodic):
    """Pulls cumulative snapshots into a ring on a cadence, then notifies.

    ``sample_fn`` returns ``(counters, gauges)`` — cumulative counter
    values and point-in-time gauges.  Each :meth:`sample` records both
    into the ring and then calls every ``listener`` (SLO trackers hook
    their ``evaluate`` here, so burn rates advance exactly when fresh
    windows do).  :meth:`start` runs ``sample`` on a daemon thread every
    ``interval_s`` of *real* time; deterministic tests skip ``start`` and
    call ``sample`` themselves under a fake clock.
    """

    thread_name = "obs-sampler"

    def __init__(
        self,
        sample_fn: Callable[[], Tuple[Mapping[str, float], Mapping[str, float]]],
        ring: TimeseriesRing,
        listeners: Sequence[Callable[[], object]] = (),
        interval_s: float = 0.5,
        clock: Optional[Clock] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self._sample_fn = sample_fn
        self._ring = ring
        self._listeners = list(listeners)
        self.interval_s = float(interval_s)
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._samples = 0
        self._sample_lock = threading.Lock()

    @property
    def samples(self) -> int:
        return self._samples

    def sample(self) -> None:
        """One pull: record counters + gauges, then notify listeners.

        The pull-and-record pair runs under a sampler lock: the
        background thread and gateway reads both call this, and an
        interleaved stale snapshot recorded *after* a newer one would
        rewind the ring's cumulative baseline and re-count the same
        increment into the next delta.  Listeners run outside the lock
        (they serialize on their own locks).
        """
        with self._sample_lock:
            now = self.clock()
            counters, gauges = self._sample_fn()
            self._ring.record_counters(counters, now=now)
            if gauges:
                self._ring.record_gauges(gauges, now=now)
            self._samples += 1
        for listener in self._listeners:
            listener()

    def _tick(self) -> None:
        self.sample()


__all__ = [
    "MetricsSampler",
    "TimeseriesRing",
]
