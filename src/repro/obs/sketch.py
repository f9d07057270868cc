"""The one latency estimator: a relative-error log-bucket quantile sketch.

DDSketch (Masson, Rim and Lee, VLDB 2019, https://arxiv.org/abs/1908.10693).
A positive value ``x`` lands in bucket ``k = ceil(log_gamma(x))`` with
``gamma = (1 + ALPHA) / (1 - ALPHA)``.  Bucket ``k`` spans
``(gamma**(k-1), gamma**k]``, and its representative
``2 * gamma**k / (gamma + 1)`` is within relative error ``ALPHA`` of every
value in it.  Values ``<= 0`` count in a separate zero bucket whose
representative is 0: response-cache hits observe exactly 0.0 s, which no
log bucket can hold.

Count, sum, min and max are exact.  A quantile is the representative of
the bucket holding the nearest-rank order statistic (rank ``ceil(q * n)``,
numpy's ``inverted_cdf`` method), clamped to ``[min, max]``; so it is
within ``ALPHA`` of the exact nearest-rank quantile.  ``observe`` is O(1),
and memory grows with the dynamic range, not the count: about 115 buckets
per decade of latency.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

#: Relative accuracy of every reported quantile.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)

#: The reported quantiles and their snapshot keys (milliseconds).
_QUANTILE_KEYS = ((0.50, "p50_ms"), (0.95, "p95_ms"), (0.99, "p99_ms"))


class LatencySketch:
    """Thread-safe quantile sketch over a stream of latencies in seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf
        self._zeros = 0
        self._bins: Dict[int, int] = {}

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        index = math.ceil(math.log(seconds) / _LOG_GAMMA) if seconds > 0.0 else None
        with self._lock:
            self.count += 1
            self.sum_s += seconds
            if seconds < self.min_s:
                self.min_s = seconds
            if seconds > self.max_s:
                self.max_s = seconds
            if index is None:
                self._zeros += 1
            else:
                self._bins[index] = self._bins.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """The nearest-rank ``q``-quantile in seconds (``None`` when empty)."""
        with self._lock:
            return self._quantile_locked(q, sorted(self._bins.items()))

    def _quantile_locked(self, q: float, ordered) -> Optional[float]:
        if not self.count:
            return None
        rank = max(math.ceil(q * self.count), 1)
        seen, value = self._zeros, 0.0
        for index, count in ordered:
            if seen >= rank:
                break
            seen += count
            value = 2.0 * _GAMMA ** index / (_GAMMA + 1.0)
        return min(max(value, self.min_s), self.max_s)

    def snapshot(self) -> Dict[str, object]:
        """``count`` plus mean, min, max, p50, p95 and p99 in milliseconds
        (each ``None`` while the sketch is empty)."""
        with self._lock:
            if not self.count:
                return {"count": 0, "mean_ms": None, "min_ms": None,
                        "max_ms": None,
                        **{key: None for _q, key in _QUANTILE_KEYS}}
            ordered = sorted(self._bins.items())
            payload: Dict[str, object] = {
                "count": self.count,
                "mean_ms": self.sum_s / self.count * 1e3,
                "min_ms": self.min_s * 1e3,
                "max_ms": self.max_s * 1e3,
            }
            for q, key in _QUANTILE_KEYS:
                payload[key] = self._quantile_locked(q, ordered) * 1e3
            return payload


__all__ = ["ALPHA", "LatencySketch"]
