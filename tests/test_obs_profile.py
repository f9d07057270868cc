"""Unit tests for the sampling profiler and span-derived hotspots.

The profiler's frame source is injected (fake frame objects), so stack
collapsing, bounding, and counting are all exercised without threads;
``span_hotspots`` runs on a FakeClock tracer.
"""

from __future__ import annotations

import pytest

from repro.obs.profile import (
    TRUNCATED_STACK,
    SamplingProfiler,
    collapse_frame,
    span_hotspots,
)
from repro.obs.trace import FakeClock, Tracer


class _Code:
    def __init__(self, filename: str, name: str) -> None:
        self.co_filename = filename
        self.co_name = name


class _Frame:
    """Just enough of a frame: ``f_code`` and ``f_back``."""

    def __init__(self, filename: str, name: str, back=None) -> None:
        self.f_code = _Code(filename, name)
        self.f_back = back


def _stack(*labels):
    """Build a leaf frame for ``root;...;leaf`` given (file, fn) pairs."""
    frame = None
    for filename, name in labels:
        frame = _Frame(filename, name, back=frame)
    return frame


class TestCollapseFrame:
    def test_root_first_semicolon_joined(self):
        leaf = _stack(("/a/b/server.py", "run"),
                      ("/a/b/cohort.py", "serve_batch"),
                      ("/a/b/batch.py", "evaluate_megabatch"))
        assert collapse_frame(leaf) == (
            "server.run;cohort.serve_batch;batch.evaluate_megabatch"
        )

    def test_labels_are_stem_dot_function(self):
        assert collapse_frame(_Frame("/deep/path/to/module.py", "fn")) == \
            "module.fn"
        assert collapse_frame(_Frame("noext", "fn")) == "noext.fn"

    def test_max_depth_truncates_near_the_root(self):
        leaf = _stack(*[(f"f{i}.py", f"fn{i}") for i in range(10)])
        collapsed = collapse_frame(leaf, max_depth=3)
        # The walk goes leaf -> back, so the deepest frames survive.
        assert collapsed == "f7.fn7;f8.fn8;f9.fn9"


class TestSamplingProfiler:
    def _profiler(self, frames, **kwargs):
        return SamplingProfiler(frames_fn=lambda: frames, **kwargs)

    def test_sample_once_counts_collapsed_stacks(self):
        frames = {
            11: _stack(("a.py", "main"), ("b.py", "work")),
            12: _stack(("a.py", "main"), ("c.py", "idle")),
        }
        profiler = self._profiler(frames)
        assert profiler.sample_once() == 2
        profiler.sample_once()
        rows = profiler.collapsed()
        assert {row["stack"]: row["count"] for row in rows} == {
            "a.main;b.work": 2,
            "a.main;c.idle": 2,
        }
        assert profiler.samples == 2

    def test_collapsed_sorts_by_count_then_stack(self):
        profiler = self._profiler({11: _stack(("a.py", "hot"))})
        profiler.sample_once()
        profiler._frames_fn = lambda: {
            11: _stack(("a.py", "hot")),
            12: _stack(("a.py", "cold")),
        }
        profiler.sample_once()
        rows = profiler.collapsed()
        assert [row["stack"] for row in rows] == ["a.hot", "a.cold"]
        assert profiler.collapsed(limit=1) == [{"stack": "a.hot", "count": 2}]

    def test_max_stacks_overflows_into_truncated_bucket(self):
        profiler = self._profiler(
            {i: _stack((f"m{i}.py", "fn")) for i in range(5)}, max_stacks=2
        )
        profiler.sample_once()
        rows = {row["stack"]: row["count"] for row in profiler.collapsed()}
        assert rows[TRUNCATED_STACK] == 3
        assert sum(rows.values()) == 5
        assert len(rows) == 3  # two distinct + the overflow bucket

    def test_skips_the_calling_thread(self):
        import threading
        frames = {
            threading.get_ident(): _stack(("me.py", "test")),
            99: _stack(("other.py", "work")),
        }
        profiler = self._profiler(frames)
        assert profiler.sample_once() == 1
        [row] = profiler.collapsed()
        assert row["stack"] == "other.work"

    def test_collapsed_text_is_flamegraph_format(self):
        profiler = self._profiler({11: _stack(("a.py", "x"), ("b.py", "y"))})
        profiler.sample_once()
        assert profiler.collapsed_text() == "a.x;b.y 1"

    def test_snapshot_shape_and_reset(self):
        profiler = self._profiler({11: _stack(("a.py", "x"))})
        profiler.sample_once()
        snap = profiler.snapshot()
        assert snap["running"] is False
        assert snap["samples"] == 1
        assert snap["distinct_stacks"] == 1
        assert snap["collapsed"] == [{"stack": "a.x", "count": 1}]
        profiler.reset()
        assert profiler.snapshot()["samples"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0.0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stacks=1)

    def test_start_stop_real_thread_samples(self):
        profiler = SamplingProfiler(
            interval_s=0.001,
            frames_fn=lambda: {11: _stack(("a.py", "busy"))},
        )
        profiler.start()
        try:
            deadline = 200
            while profiler.samples == 0 and deadline:
                import time
                time.sleep(0.005)
                deadline -= 1
        finally:
            profiler.stop()
        assert profiler.samples > 0
        assert profiler.running is False


class TestSpanHotspots:
    def test_self_time_subtracts_same_pid_children(self):
        clock = FakeClock(0.0)
        tracer = Tracer(clock=clock)
        handle = tracer.start_trace("serve.request", problem="conv")
        kernel = handle.open_span("megabatch.kernel")
        clock.advance(3.0)
        handle.close_span(kernel)
        clock.advance(1.0)
        handle.finish()
        rows = {row["name"]: row for row in span_hotspots(tracer)}
        assert rows["megabatch.kernel"]["self_s"] == pytest.approx(3.0)
        assert rows["serve.request"]["self_s"] == pytest.approx(1.0)
        assert rows["megabatch.kernel"]["problem"] == "conv"

    def test_aggregates_across_traces_by_name_and_problem(self):
        clock = FakeClock(0.0)
        tracer = Tracer(clock=clock)
        for _ in range(2):
            handle = tracer.start_trace("serve.request", problem="gemm")
            clock.advance(2.0)
            handle.finish()
        [row] = span_hotspots(tracer)
        assert row["name"] == "serve.request"
        assert row["count"] == 2
        assert row["self_s"] == pytest.approx(4.0)

    def test_top_k_truncation_by_self_time(self):
        clock = FakeClock(0.0)
        tracer = Tracer(clock=clock)
        for index, cost in enumerate((3.0, 1.0, 2.0)):
            handle = tracer.start_trace(f"span{index}")
            clock.advance(cost)
            handle.finish()
        rows = span_hotspots(tracer, top_k=2)
        assert [row["name"] for row in rows] == ["span0", "span2"]

    def test_open_spans_are_skipped(self):
        tracer = Tracer(clock=FakeClock(0.0))
        tracer.start_trace("never.finished")
        assert span_hotspots(tracer) == []
