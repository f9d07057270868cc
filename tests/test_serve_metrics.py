"""Metrics primitives: histograms, counters, registry snapshot."""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.serve.metrics import Counter, MetricsRegistry, SizeHistogram

_GOLDEN_DIR = Path(__file__).parent / "golden"


def _load_schema_tools():
    """The generator script owns both the canonical population and the
    schema derivation; load it by path so the test can't drift from it."""
    spec = importlib.util.spec_from_file_location(
        "generate_metrics_schema",
        _GOLDEN_DIR / "generate_metrics_schema.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSizeHistogram:
    def test_power_of_two_buckets(self):
        hist = SizeHistogram(top=8)
        for size in (1, 2, 2, 3, 8, 9, 100):
            hist.observe(size)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 7
        assert snapshot["buckets"]["<=1"] == 1
        assert snapshot["buckets"]["<=2"] == 2
        assert snapshot["buckets"]["<=4"] == 1
        assert snapshot["buckets"]["<=8"] == 1
        assert snapshot["buckets"][">8"] == 2
        assert snapshot["mean"] == pytest.approx(125 / 7)

    def test_empty_snapshot(self):
        snapshot = SizeHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean"] is None
        assert snapshot["buckets"] == {}

    @pytest.mark.parametrize("top", [1, 4, 8, 256])
    def test_bit_length_bucketing_matches_linear_scan(self, top):
        """The O(1) ``bit_length`` bucket must be snapshot-identical to the
        linear bound scan it replaced, for every size from 0 through past
        the top bound (including the non-positive clamp and overflow)."""

        def linear_index(size, bounds):
            for i, bound in enumerate(bounds):
                if size <= bound:
                    return i
            return len(bounds)

        reference = SizeHistogram(top=top)
        fast = SizeHistogram(top=top)
        bounds = list(reference._bounds)
        for size in range(-2, 2 * top + 2):
            fast.observe(size)
            reference._counts[linear_index(size, bounds)] += 1
            reference._total += 1
            reference._sum += size
        assert fast.snapshot() == reference.snapshot()
        assert fast._counts == reference._counts


class TestRegistryLatency:
    def test_snapshot_fields_in_ms(self):
        registry = MetricsRegistry()
        for seconds in (0.010, 0.020, 0.030, 0.040, 0.100):
            registry.observe_latency(seconds)
        latency = registry.snapshot()["latency"]
        assert latency["count"] == 5
        assert latency["min_ms"] == pytest.approx(10.0)
        assert latency["max_ms"] == pytest.approx(100.0)
        assert latency["mean_ms"] == pytest.approx(40.0)
        assert latency["p50_ms"] == pytest.approx(30.0, rel=0.01)
        assert latency["p99_ms"] == pytest.approx(100.0, rel=0.01)

    def test_empty_snapshot(self):
        latency = MetricsRegistry().snapshot()["latency"]
        assert latency["count"] == 0
        assert latency["p50_ms"] is None


class TestSnapshotSchemaGolden:
    """``snapshot()``'s shape is a public contract (dashboards, the
    Prometheus renderer, the fleet aggregator); drift must be loud."""

    def test_snapshot_matches_frozen_schema(self):
        tools = _load_schema_tools()
        frozen = json.loads((_GOLDEN_DIR / "metrics_schema.json").read_text())
        derived = tools.derive_schema(tools.canonical_snapshot())
        assert derived == frozen, (
            "MetricsRegistry.snapshot() schema drifted; if intentional, "
            "rerun tests/golden/generate_metrics_schema.py"
        )

    def test_schema_covers_every_counter_and_label(self):
        tools = _load_schema_tools()
        frozen = json.loads((_GOLDEN_DIR / "metrics_schema.json").read_text())
        assert set(frozen["counters"]) == set(MetricsRegistry.COUNTERS)
        assert set(frozen["labels"]) == set(MetricsRegistry.LABELS)


class TestRegistry:
    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.inc("submitted", 3)
        registry.inc("served", 2)
        registry.observe_batch(4)
        registry.observe_latency(0.05)
        snapshot = registry.snapshot(queue_depth=1, extra={"oracle_cache": None})
        assert snapshot["counters"]["submitted"] == 3
        assert snapshot["counters"]["served"] == 2
        assert snapshot["queue_depth"] == 1
        assert snapshot["batch_size"]["count"] == 1
        assert snapshot["latency"]["count"] == 1
        assert snapshot["oracle_cache"] is None
        assert snapshot["uptime_s"] >= 0

    def test_unknown_counter_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().inc("made_up_series")

    def test_counter_thread_safety(self):
        counter = Counter()

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000
