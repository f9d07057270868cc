"""The one latency estimator: the log-bucket sketch against exact quantiles."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.obs.sketch import ALPHA, LatencySketch


def _sketch(values) -> LatencySketch:
    sketch = LatencySketch()
    for value in values:
        sketch.observe(value)
    return sketch


def _nearest_rank(values, q: float) -> float:
    return float(np.percentile(values, q * 100, method="inverted_cdf"))


class TestAccuracy:
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("dist", ["uniform", "exponential", "lognormal"])
    def test_within_one_percent_of_nearest_rank(self, q, dist):
        samples = getattr(np.random.default_rng(7), dist)(size=5000)
        exact = _nearest_rank(samples, q)
        estimate = _sketch(samples).quantile(q)
        assert abs(estimate - exact) <= 0.01 * exact

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_samples_track_order_statistics(self, n):
        values = [0.010, 0.020, 0.030, 0.040, 0.050][:n]
        sketch = _sketch(reversed(values))  # order must not matter
        for q in (0.5, 0.95, 0.99):
            exact = _nearest_rank(values, q)
            assert abs(sketch.quantile(q) - exact) <= ALPHA * exact

    def test_single_value_is_exact(self):
        sketch = _sketch([0.0375])
        assert sketch.quantile(0.5) == sketch.quantile(0.99) == 0.0375


class TestExactMoments:
    def test_count_mean_min_max_are_exact(self):
        values = [0.003, 0.001, 0.25, 0.04, 0.04]
        snap = _sketch(values).snapshot()
        assert snap["count"] == 5
        assert snap["mean_ms"] == sum(values) / 5 * 1e3
        assert snap["min_ms"] == 0.001 * 1e3
        assert snap["max_ms"] == 0.25 * 1e3

    def test_zeros_count_in_their_own_bucket(self):
        # Response-cache hits observe 0.0 s: six of ten here.
        sketch = _sketch([0.0] * 6 + [0.010, 0.020, 0.030, 0.040])
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.6) == 0.0
        assert sketch.quantile(0.7) == pytest.approx(0.010, rel=ALPHA)
        assert sketch.quantile(0.99) == pytest.approx(0.040, rel=ALPHA)
        snap = sketch.snapshot()
        assert snap["min_ms"] == 0.0
        assert snap["mean_ms"] == pytest.approx(10.0)

    def test_all_zeros(self):
        snap = _sketch([0.0, 0.0]).snapshot()
        assert snap["p50_ms"] == snap["p99_ms"] == snap["max_ms"] == 0.0

    def test_empty_returns_none(self):
        sketch = LatencySketch()
        assert sketch.quantile(0.5) is None
        assert sketch.snapshot() == {
            "count": 0, "mean_ms": None, "min_ms": None, "max_ms": None,
            "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }

    def test_quantiles_are_monotone_and_clamped(self):
        samples = np.random.default_rng(3).lognormal(-3.0, 1.5, size=2000)
        sketch = _sketch(samples)
        estimates = [sketch.quantile(q) for q in np.linspace(0.001, 1.0, 200)]
        assert estimates == sorted(estimates)
        assert samples.min() <= estimates[0]
        assert estimates[-1] <= samples.max()
        assert estimates[-1] == pytest.approx(samples.max(), rel=ALPHA)
        snap = sketch.snapshot()
        assert (snap["min_ms"] <= snap["p50_ms"] <= snap["p95_ms"]
                <= snap["p99_ms"] <= snap["max_ms"])

    def test_concurrent_observes_lose_no_update(self):
        sketch = LatencySketch()

        def spin(offset):
            for i in range(2000):
                # Every fourth value is a zero, the rest land on a few
                # shared buckets, so racing increments collide.
                sketch.observe(0.0 if i % 4 == 0 else (offset + i % 7) * 1e-3)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=spin, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sketch.count == 16_000
        assert sketch._zeros + sum(sketch._bins.values()) == 16_000
