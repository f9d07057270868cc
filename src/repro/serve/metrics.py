"""Live serving metrics: counters, histograms, and streaming quantiles.

Everything here is stdlib-only and cheap enough to sit on the request hot
path: counters are one lock-protected integer add, the batch-size histogram
is a bucket increment, and latency percentiles come from the one
relative-error sketch (:class:`~repro.obs.sketch.LatencySketch`), O(1) per
observation with no sample buffer to grow.  ``MetricsRegistry``
aggregates all of it into the one ``snapshot()`` dict the HTTP gateway and
the load generator read.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.obs.sketch import LatencySketch
from repro.obs.trace import Clock, MonotonicClock


class Counter:
    """Monotonic thread-safe counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class LabeledCounter:
    """A counter fanned out over one label dimension (e.g. per-algorithm).

    Keys are caller-supplied strings; bounding cardinality is the caller's
    job (the serving layer uses algorithm names and 16-hex problem
    fingerprints, both naturally bounded by the traffic mix).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {}

    def inc(self, label: str, amount: int = 1) -> None:
        label = str(label)
        with self._lock:
            self._values[label] = self._values.get(label, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {label: self._values[label]
                    for label in sorted(self._values)}


class SizeHistogram:
    """Power-of-two bucketed histogram (1, 2, 4, ... , >top)."""

    def __init__(self, top: int = 256) -> None:
        if top < 1:
            raise ValueError(f"top must be >= 1, got {top}")
        self._bounds: List[int] = []
        bound = 1
        while bound <= top:
            self._bounds.append(bound)
            bound *= 2
        self._lock = threading.Lock()
        self._counts = [0] * (len(self._bounds) + 1)
        self._total = 0
        self._sum = 0

    def observe(self, size: int) -> None:
        size = int(size)
        # O(1) bucket lookup, held under the metrics lock on every request:
        # sizes in (2**(k-1), 2**k] land in bucket k, which is exactly
        # (size - 1).bit_length(); sizes <= 1 (incl. non-positive) land in
        # bucket 0 and anything past the top bound in the overflow bucket —
        # the same bucket the linear scan chose for every size.
        index = min(max(size - 1, 0).bit_length(), len(self._bounds))
        with self._lock:
            self._counts[index] += 1
            self._total += 1
            self._sum += size

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            buckets = {
                f"<={bound}": count
                for bound, count in zip(self._bounds, self._counts)
                if count
            }
            if self._counts[-1]:
                buckets[f">{self._bounds[-1]}"] = self._counts[-1]
            return {
                "count": self._total,
                "mean": self._sum / self._total if self._total else None,
                "buckets": buckets,
            }


class MetricsRegistry:
    """All serving metrics behind one ``snapshot()``.

    Counter names are fixed (``submitted``, ``served``, ``rejected``,
    ``collapsed``, ``response_cache_hits``, ``errors``, ``batches``) so the
    snapshot schema is stable for scrapers; unknown names raise rather than
    silently creating drifting series.
    """

    COUNTERS = (
        "submitted",
        "served",
        "rejected",
        "collapsed",
        "response_cache_hits",
        "errors",
        "batches",
    )

    #: Labeled dimensions: who is traffic served *for* (fixed names keep
    #: the snapshot schema stable; see tests/golden/metrics_schema.json).
    LABELS = ("served_by_algorithm", "served_by_problem")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._started = self._clock()
        self._counters = {name: Counter() for name in self.COUNTERS}
        self._labeled = {name: LabeledCounter() for name in self.LABELS}
        self.latency = LatencySketch()
        self.batch_sizes = SizeHistogram()

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def inc_label(self, dimension: str, label: str, amount: int = 1) -> None:
        """Bump one key of a labeled dimension (unknown dimensions raise)."""
        self._labeled[dimension].inc(label, amount)

    def count(self, name: str) -> int:
        return self._counters[name].value

    def counts(self) -> Dict[str, int]:
        """Every counter's cumulative value, in ``COUNTERS`` order."""
        return {name: self.count(name) for name in self.COUNTERS}

    def observe_batch(self, size: int) -> None:
        self._counters["batches"].inc()
        self.batch_sizes.observe(size)

    def observe_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)

    def snapshot(
        self,
        queue_depth: Optional[int] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """One JSON-compatible dict with every live metric."""
        served = self.count("served")
        uptime = self._clock() - self._started
        payload: Dict[str, object] = {
            "uptime_s": uptime,
            "throughput_rps": served / uptime if uptime > 0 else 0.0,
            "counters": self.counts(),
            "labels": {name: self._labeled[name].snapshot()
                       for name in self.LABELS},
            "batch_size": self.batch_sizes.snapshot(),
            "latency": self.latency.snapshot(),
        }
        if queue_depth is not None:
            payload["queue_depth"] = queue_depth
        if extra:
            payload.update(extra)
        return payload


__all__ = [
    "Counter",
    "LabeledCounter",
    "MetricsRegistry",
    "SizeHistogram",
]
