"""Prometheus text-exposition rendering tests (pure snapshot-in/text-out)."""

from __future__ import annotations

from repro.obs import prom
from repro.obs.trace import FakeClock
from repro.serve.metrics import MetricsRegistry


def _server_snapshot():
    clock = FakeClock(0.0)
    registry = MetricsRegistry(clock=clock)
    clock.advance(10.0)
    registry.inc("submitted", 4)
    registry.inc("served", 4)
    registry.observe_batch(3)
    registry.observe_batch(9)
    for ms in (10, 20, 30):
        registry.observe_latency(ms / 1e3)
    registry.inc_label("served_by_algorithm", "conv1d", 3)
    registry.inc_label("served_by_problem", "ab" * 8, 3)
    return registry.snapshot(queue_depth=2)


class TestServerRendering:
    def test_counters_render_as_totals(self):
        text = prom.render_prometheus(_server_snapshot())
        assert "# TYPE repro_served_total counter" in text
        assert "repro_served_total 4" in text
        assert "repro_queue_depth 2" in text

    def test_latency_renders_as_summary(self):
        snapshot = _server_snapshot()
        text = prom.render_prometheus(snapshot)
        assert "# TYPE repro_request_latency_seconds summary" in text
        p50_s = snapshot["latency"]["p50_ms"] / 1e3
        assert f'repro_request_latency_seconds{{quantile="0.5"}} {p50_s!r}' in text
        assert "repro_request_latency_seconds_count 3" in text

    def test_batch_size_renders_as_cumulative_histogram(self):
        text = prom.render_prometheus(_server_snapshot())
        assert "# TYPE repro_batch_size histogram" in text
        # size 3 lands in <=4, size 9 in <=16; buckets are cumulative.
        assert 'repro_batch_size_bucket{le="4.0"} 1' in text
        assert 'repro_batch_size_bucket{le="16.0"} 2' in text
        assert 'repro_batch_size_bucket{le="+Inf"} 2' in text
        assert "repro_batch_size_sum 12" in text

    def test_label_dimensions_render_with_their_label(self):
        text = prom.render_prometheus(_server_snapshot())
        assert (
            'repro_served_by_algorithm_total{algorithm="conv1d"} 3' in text
        )
        assert f'repro_served_by_problem_total{{problem="{"ab" * 8}"}} 3' in text

    def test_every_sample_line_parses(self):
        for line in prom.render_prometheus(_server_snapshot()).splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE repro_")
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every exposition value must be numeric
            assert name_part.startswith("repro_")


class TestRouterRendering:
    def _fleet_snapshot(self):
        return {
            "uptime_s": 5.0,
            "throughput_rps": 2.0,
            "queue_depth": 1,
            "router": {
                "counters": {"submitted": 10, "failovers": 1},
                "latency": {"count": 10, "mean_ms": 5.0, "max_ms": 9.0,
                            "p50_ms": 4.0, "p95_ms": 8.0, "p99_ms": 9.0},
            },
            "fleet": {"counters": {"served": 10}},
            "shards": {
                "0": _server_snapshot(),
                "1": {"status": "unreachable"},
            },
        }

    def test_router_and_fleet_series(self):
        text = prom.render_prometheus(self._fleet_snapshot())
        assert "repro_router_failovers_total 1" in text
        assert "repro_fleet_served_total 10" in text
        assert (
            'repro_router_request_latency_seconds{quantile="0.5"} 0.004'
            in text
        )

    def test_per_shard_series_survive_with_shard_label(self):
        text = prom.render_prometheus(self._fleet_snapshot())
        assert 'repro_shard_up{shard="0"} 1' in text
        assert 'repro_shard_up{shard="1"} 0' in text
        assert 'repro_served_total{shard="0"} 4' in text
        assert (
            'repro_served_by_algorithm_total{algorithm="conv1d",shard="0"} 3'
            in text
        )


class TestEscaping:
    def test_label_values_escape_quotes_and_newlines(self):
        assert prom.escape_label_value('a"b\nc\\d') == 'a\\"b\\nc\\\\d'

    def test_escaped_value_round_trips_into_line(self):
        text = prom.render_samples(
            [("served_by_problem_total", {"problem": 'we"ird'}, 1)]
        )
        assert 'problem="we\\"ird"' in text
