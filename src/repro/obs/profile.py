"""Continuous sampling profiler + span-derived hotspot tables.

Two complementary answers to "where is the time going?":

* :class:`SamplingProfiler` — a statistical wall-clock profiler: a
  background daemon thread periodically walks every live thread's stack
  (``sys._current_frames()``) and counts collapsed stacks
  (``root;caller;...;leaf``), the format flamegraph tooling consumes
  directly.  Overhead is one stack walk per interval regardless of
  request rate (the HPCCFA pattern: sample, don't instrument), it is
  opt-in (``ServeConfig(profiling=True)``), and the count table is
  bounded.  The frame source is injectable so tests profile synthetic
  frames deterministically.

* :func:`span_hotspots` — an exact accounting from the tracer's
  existing spans: per-span *self time* (duration minus same-process
  child durations) aggregated into a top-k table keyed by
  ``(span name, problem)``, so "megabatch.kernel on problem X dominates"
  falls out of data already collected on the request path.

Both surface at ``GET /v1/profile`` and ``python -m repro.obs
--profile``.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.trace import Periodic

#: Fallback bucket once the stack table reaches ``max_stacks``.
TRUNCATED_STACK = "(truncated)"

#: Code-object -> label cache.  A process has a fixed set of code
#: objects, so this converges fast and turns the per-frame cost into a
#: dict hit; the size guard only matters for synthetic frame objects.
_LABEL_CACHE: Dict[object, str] = {}
_LABEL_CACHE_MAX = 4096


def _frame_label(frame) -> str:
    code = frame.f_code
    label = _LABEL_CACHE.get(code)
    if label is not None:
        return label
    filename = code.co_filename
    # Module stem without path or extension: "/a/b/server.py" -> "server".
    slash = max(filename.rfind("/"), filename.rfind("\\"))
    stem = filename[slash + 1:]
    if stem.endswith(".py"):
        stem = stem[:-3]
    label = f"{stem}.{code.co_name}"
    if len(_LABEL_CACHE) >= _LABEL_CACHE_MAX:
        _LABEL_CACHE.clear()
    _LABEL_CACHE[code] = label
    return label


def collapse_frame(frame, max_depth: int = 64) -> str:
    """Render a leaf frame as a root-first ``;``-joined collapsed stack."""
    labels: List[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return ";".join(labels)


class SamplingProfiler(Periodic):
    """Bounded-memory statistical profiler over ``sys._current_frames``.

    ``frames_fn`` returns a ``{thread_id: frame}`` mapping (injectable
    for deterministic tests).  :meth:`sample_once` is the unit of work;
    :meth:`start` runs it on a daemon thread every ``interval_s`` of
    real time.  The sampler skips its own thread and keeps at most
    ``max_stacks`` distinct stacks (overflow counts under
    ``"(truncated)"``), so a pathological workload cannot grow memory.
    """

    thread_name = "obs-profiler"

    def __init__(self, interval_s: float = 0.005, max_stacks: int = 512,
                 max_depth: int = 64,
                 frames_fn: Optional[Callable[[], Mapping[int, object]]] = None,
                 ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if max_stacks < 2:
            raise ValueError(f"max_stacks must be >= 2, got {max_stacks}")
        self.interval_s = float(interval_s)
        self.max_stacks = int(max_stacks)
        self.max_depth = int(max_depth)
        self._frames_fn = (frames_fn if frames_fn is not None
                           else sys._current_frames)
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._samples = 0

    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def sample_once(self) -> int:
        """Walk every live thread's stack once; returns stacks recorded."""
        skip_ids = set()
        thread = self._thread
        if thread is not None and thread.ident is not None:
            skip_ids.add(thread.ident)
        skip_ids.add(threading.get_ident())
        frames = self._frames_fn()
        collapsed: List[str] = []
        for thread_id in sorted(frames):
            if thread_id in skip_ids:
                continue
            stack = collapse_frame(frames[thread_id], self.max_depth)
            if stack:
                collapsed.append(stack)
        with self._lock:
            self._samples += 1
            for stack in collapsed:
                if stack in self._counts or len(self._counts) < self.max_stacks:
                    self._counts[stack] = self._counts.get(stack, 0) + 1
                else:
                    self._counts[TRUNCATED_STACK] = (
                        self._counts.get(TRUNCATED_STACK, 0) + 1
                    )
        return len(collapsed)

    def _tick(self) -> None:
        self.sample_once()

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._samples = 0

    def collapsed(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Top collapsed stacks by count (flamegraph-ready strings)."""
        with self._lock:
            items = sorted(self._counts.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        if limit is not None and limit >= 0:
            items = items[:limit]
        return [{"stack": stack, "count": count} for stack, count in items]

    def collapsed_text(self, limit: Optional[int] = None) -> str:
        """``stack count`` lines — feed straight into ``flamegraph.pl``."""
        return "\n".join(f"{row['stack']} {row['count']}"
                         for row in self.collapsed(limit))

    def snapshot(self, limit: Optional[int] = 50) -> Dict[str, object]:
        with self._lock:
            samples = self._samples
            distinct = len(self._counts)
        return {
            "running": self.running,
            "interval_s": self.interval_s,
            "samples": samples,
            "distinct_stacks": distinct,
            "max_stacks": self.max_stacks,
            "collapsed": self.collapsed(limit),
        }


def span_hotspots(tracer, top_k: int = 20) -> List[Dict[str, object]]:
    """Aggregate per-span *self time* across every retained trace.

    Self time is a closed span's duration minus its same-pid closed
    children's durations (clamped at zero — cross-process children use a
    different clock base and are skipped).  Rows aggregate by
    ``(span name, problem)`` where ``problem`` comes from the span's own
    attrs or, failing that, the trace root's; the result is the top-k by
    total self time.
    """
    totals: Dict[Tuple[str, str], Dict[str, float]] = {}
    for trace_id in tracer.trace_ids():
        spans = tracer.export_spans(trace_id)
        by_id: Dict[str, Dict[str, object]] = {}
        child_time: Dict[str, float] = {}
        root_problem = ""
        for span in spans:
            by_id[str(span["span_id"])] = span
            if span.get("parent_id") is None and not root_problem:
                root_problem = str(span.get("attrs", {}).get("problem", ""))
        for span in spans:
            if span.get("end") is None:
                continue
            parent_id = span.get("parent_id")
            parent = by_id.get(str(parent_id)) if parent_id is not None else None
            if parent is not None and parent.get("pid") == span.get("pid"):
                duration = float(span["end"]) - float(span["start"])  # type: ignore[arg-type]
                key = str(parent["span_id"])
                child_time[key] = child_time.get(key, 0.0) + duration
        for span in spans:
            if span.get("end") is None:
                continue
            duration = float(span["end"]) - float(span["start"])  # type: ignore[arg-type]
            self_s = max(duration - child_time.get(str(span["span_id"]), 0.0),
                         0.0)
            problem = str(span.get("attrs", {}).get("problem", "")
                          or root_problem)
            key2 = (str(span["name"]), problem)
            row = totals.setdefault(key2, {"self_s": 0.0, "count": 0.0})
            row["self_s"] += self_s
            row["count"] += 1.0
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1]["self_s"], kv[0]))
    return [
        {"name": name, "problem": problem, "self_s": row["self_s"],
         "count": int(row["count"])}
        for (name, problem), row in ranked[:max(top_k, 0)]
    ]


__all__ = [
    "SamplingProfiler",
    "TRUNCATED_STACK",
    "collapse_frame",
    "span_hotspots",
]
