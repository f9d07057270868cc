"""Unit tests for the rolling-window telemetry ring on a fake clock."""

from __future__ import annotations

import pytest

from repro.obs.timeseries import MetricsSampler, TimeseriesRing
from repro.obs.trace import FakeClock


@pytest.fixture
def clock():
    return FakeClock(1000.0)


@pytest.fixture
def ring(clock):
    return TimeseriesRing(interval_s=1.0, capacity=4, clock=clock)


class TestWindowLatency:
    def test_moments_and_quantiles(self, ring):
        for ms in (1, 2, 3, 4, 100):
            ring.observe_latency(ms / 1e3)
        [window] = ring.snapshot()["windows"]
        snap = window["latency"]
        assert snap["count"] == 5
        assert snap["min_ms"] == pytest.approx(1.0)
        assert snap["max_ms"] == pytest.approx(100.0)
        assert snap["mean_ms"] == pytest.approx(22.0)
        assert snap["p50_ms"] == pytest.approx(3.0, rel=0.01)
        assert snap["min_ms"] <= snap["p50_ms"] <= snap["p99_ms"] <= snap["max_ms"]
        assert "over_threshold" not in snap  # no threshold registered

    def test_over_threshold_counts_are_exact_per_window(self, ring, clock):
        ring.register_threshold("slo", 0.010)
        for seconds in (0.001, 0.010, 0.011, 0.5):
            ring.observe_latency(seconds)
        clock.advance(1.0)
        ring.observe_latency(0.0101)
        ring.observe_latency(0.0)
        windows = ring.snapshot()["windows"]
        # Strictly above: 0.010 itself is within the objective.
        assert [w["latency"]["over_threshold"] for w in windows] == [
            {"slo": 2}, {"slo": 1},
        ]
        totals = ring.totals(horizon_s=2.0)
        assert totals["over_threshold"] == {"slo": 3}
        assert totals["latency_count"] == 6

    def test_window_without_latencies(self, ring):
        ring.observe_batch(4)
        [window] = ring.snapshot()["windows"]
        assert window["latency"]["count"] == 0
        assert window["latency"]["p99_ms"] is None


class TestWindowing:
    def test_observations_land_in_clocked_windows(self, ring, clock):
        ring.observe_latency(0.01)
        clock.advance(1.0)
        ring.observe_latency(0.02)
        ring.observe_latency(0.03)
        windows = ring.snapshot()["windows"]
        assert [w["latency"]["count"] for w in windows] == [1, 2]
        assert windows[0]["index"] + 1 == windows[1]["index"]

    def test_absent_windows_read_as_no_activity(self, ring, clock):
        ring.observe_latency(0.01)
        clock.advance(3.0)  # two empty windows in between
        ring.observe_latency(0.01)
        windows = ring.snapshot()["windows"]
        assert len(windows) == 2  # idle windows are never materialized

    def test_capacity_evicts_oldest(self, ring, clock):
        for _ in range(6):
            ring.observe_latency(0.01)
            clock.advance(1.0)
        windows = ring.snapshot()["windows"]
        assert len(windows) == 4
        # Newest windows retained: the two oldest indices are gone.
        assert windows[0]["index"] == 2

    def test_partial_window_rates_use_elapsed_time(self, ring, clock):
        ring.record_counters({"served": 10.0})
        clock.advance(0.5)
        [window] = ring.snapshot()["windows"]
        assert window["complete"] is False
        assert window["rates"]["served"] == pytest.approx(20.0)  # 10 in 0.5s
        clock.advance(0.5)
        [window] = ring.snapshot()["windows"]
        assert window["complete"] is True
        assert window["rates"]["served"] == pytest.approx(10.0)

    def test_batch_stats(self, ring):
        ring.observe_batch(4)
        ring.observe_batch(8)
        [window] = ring.snapshot()["windows"]
        assert window["batch"] == {"count": 2, "mean": 6.0, "max": 8}


class TestCounterDeltas:
    def test_deltas_are_non_cumulative(self, ring, clock):
        ring.record_counters({"served": 5.0})
        clock.advance(1.0)
        ring.record_counters({"served": 12.0})
        windows = ring.snapshot()["windows"]
        assert [w["counters"].get("served") for w in windows] == [5.0, 7.0]

    def test_multiple_samples_accumulate_in_one_window(self, ring):
        ring.record_counters({"served": 5.0})
        ring.record_counters({"served": 9.0})
        [window] = ring.snapshot()["windows"]
        assert window["counters"]["served"] == pytest.approx(9.0)

    def test_counter_reset_clamps_to_zero(self, ring, clock):
        ring.record_counters({"served": 100.0})
        clock.advance(1.0)
        ring.record_counters({"served": 3.0})  # upstream restarted
        windows = ring.snapshot()["windows"]
        assert "served" not in windows[-1]["counters"]
        clock.advance(1.0)
        ring.record_counters({"served": 7.0})  # counting resumes from 3
        windows = ring.snapshot()["windows"]
        assert windows[-1]["counters"]["served"] == pytest.approx(4.0)

    def test_gauges_last_sample_wins(self, ring):
        ring.record_gauges({"queue_depth": 5.0})
        ring.record_gauges({"queue_depth": 2.0})
        [window] = ring.snapshot()["windows"]
        assert window["gauges"]["queue_depth"] == 2.0


class TestTotals:
    def test_totals_cover_the_horizon_only(self, ring, clock):
        ring.register_threshold("slo", 0.1)
        ring.observe_latency(0.5)            # bad, will age out
        ring.record_counters({"served": 1.0})
        clock.advance(2.0)
        ring.observe_latency(0.01)           # good, inside horizon
        ring.record_counters({"served": 3.0})
        totals = ring.totals(2.0)
        assert totals["latency_count"] == 1
        assert totals["over_threshold"] == {}
        assert totals["counters"] == {"served": 2.0}
        wide = ring.totals(10.0)
        assert wide["latency_count"] == 2
        assert wide["over_threshold"] == {"slo": 1}
        assert wide["counters"] == {"served": 3.0}

    def test_registered_threshold_counts_from_first_observation(self, ring):
        ring.register_threshold("slo", 0.1)
        ring.observe_latency(0.2)
        assert ring.totals(5.0)["over_threshold"] == {"slo": 1}


class TestSnapshotProjection:
    def test_metric_projects_a_dotted_path(self, ring, clock):
        ring.record_counters({"served": 2.0})
        clock.advance(1.0)
        ring.record_counters({"served": 5.0})
        snap = ring.snapshot(metric="counters.served")
        assert snap["metric"] == "counters.served"
        assert [p["value"] for p in snap["series"]] == [2.0, 3.0]
        assert all({"index", "start_s", "end_s", "complete", "value"}
                   <= set(p) for p in snap["series"])

    def test_unknown_metric_path_raises_keyerror(self, ring):
        ring.observe_latency(0.01)
        with pytest.raises(KeyError):
            ring.snapshot(metric="rates.bogus")
        with pytest.raises(KeyError):
            ring.snapshot(metric="bogus.path")

    def test_windows_truncates_to_newest(self, ring, clock):
        for _ in range(3):
            ring.observe_latency(0.01)
            clock.advance(1.0)
        snap = ring.snapshot(windows=2)
        assert len(snap["windows"]) == 2
        with pytest.raises(ValueError):
            ring.snapshot(windows=-1)

    def test_latest_rates_prefers_complete_windows(self, ring, clock):
        ring.record_counters({"served": 4.0})
        clock.advance(1.0)
        ring.record_counters({"served": 6.0})  # partial current window
        latest = ring.latest_rates()
        assert latest["counters"]["served"] == 4.0  # the complete one
        assert latest["complete"] is True

    def test_latest_rates_falls_back_to_partial(self, ring, clock):
        clock.advance(0.25)
        ring.record_counters({"served": 1.0})
        assert ring.latest_rates()["complete"] is False
        assert TimeseriesRing(clock=FakeClock()).latest_rates() == {}


class TestMetricsSampler:
    def test_sample_records_and_notifies(self, ring, clock):
        cumulative = {"served": 0.0}
        evaluations = []
        sampler = MetricsSampler(
            lambda: (dict(cumulative), {"queue_depth": 3.0}),
            ring,
            listeners=[lambda: evaluations.append(clock())],
            clock=clock,
        )
        cumulative["served"] = 5.0
        sampler.sample()
        clock.advance(1.0)
        cumulative["served"] = 8.0
        sampler.sample()
        assert sampler.samples == 2
        assert evaluations == [1000.0, 1001.0]
        windows = ring.snapshot()["windows"]
        assert [w["counters"]["served"] for w in windows] == [5.0, 3.0]
        assert windows[-1]["gauges"]["queue_depth"] == 3.0

    def test_constructor_validation(self, ring):
        with pytest.raises(ValueError):
            MetricsSampler(lambda: ({}, {}), ring, interval_s=0.0)
        with pytest.raises(ValueError):
            TimeseriesRing(interval_s=0.0)
        with pytest.raises(ValueError):
            TimeseriesRing(capacity=1)
