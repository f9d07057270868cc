"""Lightweight request tracing: spans, stage accounting, ambient context.

The serving stack spans six layers (gateway -> server -> batcher -> cohort
-> oracle -> megabatch kernel, optionally behind the cluster router), and a
slow request can lose its time in any of them.  This module gives every
request a **trace**: a tree of timed spans plus a small per-stage duration
breakdown (``admission_wait_s``, ``batch_wait_s``, ``prepare_s``,
``prewarm_s``, ``kernel_s``, ``search_rounds_s``, ``finalize_s``) that
sums — within scheduling slack — to the request's observed wall latency.

Design constraints, in order:

1. **Near-zero cost when idle.**  The ambient :func:`span` helper is a
   couple of attribute reads when no trace is active, so the oracle and
   cohort hot paths can be instrumented unconditionally.
2. **Deterministic and lint-clean.**  All timestamps come from an injected
   :class:`Clock` (tests run on :class:`FakeClock`); ids come from a
   process-scoped counter, not ``random``/wall-clock, so the module passes
   RPR101/RPR102 and the new RPR105 clock-injection rule.
3. **Cross-process composition.**  A span tree is just a list of dicts;
   :meth:`Tracer.ingest` merges spans exported by a shard process into the
   router's record of the same ``trace_id``, and span ids embed the origin
   pid so within-process interval nesting stays checkable after a merge.

Threading model: a :class:`TraceHandle` is driven by one thread at a time
(submit thread, then the batch worker — the batcher queue provides the
happens-before edge), so handle-local state (span stack, stages) is
unlocked.  The :class:`Tracer`'s trace store is shared with gateway reader
threads and guarded by a single leaf lock.  Beside the clocks lives
:class:`Periodic`, the one daemon loop every background sampler runs on.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: A clock is any zero-argument callable returning seconds as a float.
Clock = Callable[[], float]


class MonotonicClock:
    """The one real clock: every production component injects this.

    Wrapping ``time.monotonic`` in a class (rather than passing the
    function around) gives the RPR105 lint a single audited call site and
    tests a drop-in seam (:class:`FakeClock`).
    """

    __slots__ = ()

    def __call__(self) -> float:
        # repro: ignore[RPR105] -- the one real clock read every injected Clock wraps
        return time.monotonic()


class FakeClock:
    """Deterministic manual clock for tests: starts at ``start``, moves
    only via :meth:`advance`."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot move a clock backwards ({seconds})")
        self._now += seconds
        return self._now


class Periodic:
    """Base of every background loop (the metrics sampler, the profiler,
    the registry watcher, the online learner): :meth:`start` runs
    ``_tick`` on a daemon thread every ``interval_s`` seconds of real
    time until :meth:`stop`.  A tick that raises goes to ``_on_error``
    and the loop goes on, so a background loop never takes serving down.
    Subclasses set ``interval_s`` and ``thread_name``."""

    interval_s: float
    thread_name = "periodic"
    _thread: Optional[threading.Thread] = None

    def _tick(self) -> object:
        raise NotImplementedError

    def _on_error(self, error: Exception) -> None:
        """A failed tick is skipped silently unless a subclass reports it."""

    def start(self) -> "Periodic":
        if self._thread is None:
            self._halt = threading.Event()
            self._thread = threading.Thread(
                target=self._run, args=(self._halt,), name=self.thread_name,
                daemon=True,
            )
            self._thread.start()
        return self

    def _run(self, halt: threading.Event) -> None:
        while not halt.wait(timeout=self.interval_s):
            try:
                self._tick()
            except Exception as error:  # noqa: BLE001 — the loop survives
                self._on_error(error)

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        thread = self._thread
        if thread is not None:
            self._halt.set()
            thread.join(timeout=timeout)
            self._thread = None


@dataclass
class Span:
    """One timed operation inside a trace.

    ``end`` is ``None`` while the span is open.  ``pid`` records the
    process that produced the span: timestamps are only comparable within
    one process (each uses its own monotonic base), so tree checks compare
    intervals parent-vs-child only when pids match.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: Optional[float] = None
    pid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=(None if payload.get("parent_id") is None
                       else str(payload["parent_id"])),
            name=str(payload["name"]),
            start=float(payload["start"]),  # type: ignore[arg-type]
            end=(None if payload.get("end") is None
                 else float(payload["end"])),  # type: ignore[arg-type]
            pid=int(payload.get("pid", 0)),  # type: ignore[arg-type]
            attrs=dict(payload.get("attrs", {})),  # type: ignore[arg-type]
        )


class _TraceRecord:
    """Everything the tracer keeps per trace_id (guarded by Tracer._lock)."""

    __slots__ = ("spans", "order", "links", "stages")

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.order: List[str] = []
        self.links: List[str] = []
        self.stages: Dict[str, float] = {}


class TraceHandle:
    """Mutable view of one in-flight trace, driven by the request's thread.

    The handle owns the request's *stage* accumulators and its open-span
    stack; all span storage goes through the tracer (which locks).  After
    :meth:`finish`, further spans/stages are dropped — this is what keeps
    duplicate-collapse followers from accruing the leader's later work.
    """

    __slots__ = ("tracer", "trace_id", "root_id", "stages", "_stack",
                 "_closed")

    def __init__(self, tracer: "Tracer", trace_id: str, root_id: str) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.root_id = root_id
        self.stages: Dict[str, float] = {}
        self._stack: List[str] = [root_id]
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def now(self) -> float:
        return self.tracer.clock()

    def open_span(self, name: str, parent_id: Optional[str] = None,
                  start: Optional[float] = None,
                  **attrs: object) -> Optional[str]:
        """Open a child span; returns its id (``None`` once finished).

        ``start`` lets batch layers open one span per member from a single
        shared clock read instead of re-reading per member.
        """
        if self._closed:
            return None
        if parent_id is None:
            parent_id = self._stack[-1] if self._stack else self.root_id
        span = self.tracer._new_span(self.trace_id, name, parent_id,
                                     self.now() if start is None else start,
                                     attrs)
        if span is None:
            return None
        self._stack.append(span.span_id)
        return span.span_id

    def close_span(self, span_id: Optional[str],
                   stage: Optional[str] = None, end: Optional[float] = None,
                   **attrs: object) -> None:
        if span_id is None or self._closed:
            return
        if end is None:
            end = self.now()
        duration = self.tracer._close_span(self.trace_id, span_id, end, attrs)
        if span_id in self._stack:
            self._stack.remove(span_id)
        if stage is not None and duration is not None:
            self.add_stage(stage, duration)

    def record(self, name: str, start: float, end: float,
               stage: Optional[str] = None, parent_id: Optional[str] = None,
               **attrs: object) -> Optional[str]:
        """Add an already-completed span retroactively (e.g. queue waits
        whose start happened before the trace's worker picked it up).
        Parents under the currently open span (the root when none)."""
        if self._closed:
            return None
        if parent_id is None:
            parent_id = self._stack[-1] if self._stack else self.root_id
        span = self.tracer._new_span(self.trace_id, name, parent_id,
                                     start, attrs, end=end)
        if span is None:
            return None
        if stage is not None:
            self.add_stage(stage, end - start)
        return span.span_id

    def add_stage(self, key: str, seconds: float) -> None:
        if self._closed:
            return
        self.stages[key] = self.stages.get(key, 0.0) + float(seconds)

    def annotate(self, **attrs: object) -> None:
        if self._closed:
            return
        self.tracer._annotate(self.trace_id, self.root_id, attrs)

    def link(self, trace_id: str) -> None:
        """Associate another trace (e.g. a follower linking its leader)."""
        if self._closed or not trace_id or trace_id == self.trace_id:
            return
        self.tracer._link(self.trace_id, trace_id)

    def finish(self, end: Optional[float] = None, **attrs: object) -> None:
        """Close every open span (root last) and seal the handle."""
        if self._closed:
            return
        if end is None:
            end = self.now()
        for span_id in reversed(self._stack):
            self.tracer._close_span(self.trace_id, span_id, end,
                                    attrs if span_id == self.root_id else {})
        self._stack = []
        self.tracer._seal(self.trace_id, dict(self.stages))
        self._closed = True


_TRACER_INSTANCES = itertools.count(1)


class Tracer:
    """Bounded store of traces; the factory for :class:`TraceHandle`.

    ``max_traces`` bounds memory: finished and in-flight traces alike live
    in an insertion-ordered dict evicted LRU-by-creation, so a busy server
    keeps the most recent N traces queryable at ``/v1/trace/<id>``.
    """

    def __init__(self, clock: Optional[Clock] = None, enabled: bool = True,
                 max_traces: int = 256) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.enabled = bool(enabled)
        self.max_traces = int(max_traces)
        self._pid = os.getpid()
        self._instance = next(_TRACER_INSTANCES)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._traces: Dict[str, _TraceRecord] = {}

    # -- id generation (deterministic per process, no wall clock) ---------

    def _next_id(self, prefix: str) -> str:
        # pid + per-process tracer instance keep ids unique even when a
        # router and its shard servers share one process (tests)
        # and spans from several tracers merge into one tree.
        return (
            f"{prefix}{self._pid:x}.{self._instance:x}.{next(self._ids):x}"
        )

    # -- handle lifecycle -------------------------------------------------

    def start_trace(self, name: str,
                    parent: Optional[Tuple[str, str]] = None,
                    start: Optional[float] = None,
                    **attrs: object) -> Optional[TraceHandle]:
        """Begin a trace; returns ``None`` when tracing is disabled.

        ``parent`` is a ``(trace_id, parent_span_id)`` pair from a remote
        caller (the router): the new root span adopts that trace id and
        parents under the caller's span, so the merged tree is one trace.
        ``start`` backdates the root (e.g. to the admission timestamp
        captured just before the trace object existed) so retroactive
        child spans still nest inside it.
        """
        if not self.enabled:
            return None
        parent_span: Optional[str] = None
        if parent is not None and parent[0]:
            trace_id = str(parent[0])
            parent_span = str(parent[1]) if parent[1] else None
        else:
            trace_id = self._next_id("t")
        root = Span(trace_id=trace_id, span_id=self._next_id("s"),
                    parent_id=parent_span, name=name,
                    start=self.clock() if start is None else float(start),
                    pid=self._pid, attrs=dict(attrs))
        with self._lock:
            record = self._record_locked(trace_id)
            record.spans[root.span_id] = root
            record.order.append(root.span_id)
        return TraceHandle(self, trace_id, root.span_id)

    # -- span storage (called by handles) ---------------------------------

    def _new_span(self, trace_id: str, name: str, parent_id: Optional[str],
                  start: float, attrs: Dict[str, object],
                  end: Optional[float] = None) -> Optional[Span]:
        span = Span(trace_id=trace_id, span_id=self._next_id("s"),
                    parent_id=parent_id, name=name, start=start, end=end,
                    pid=self._pid, attrs=dict(attrs))
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None  # evicted under load; drop silently
            record.spans[span.span_id] = span
            record.order.append(span.span_id)
        return span

    def _close_span(self, trace_id: str, span_id: str, end: float,
                    attrs: Dict[str, object]) -> Optional[float]:
        with self._lock:
            record = self._traces.get(trace_id)
            span = record.spans.get(span_id) if record is not None else None
            if span is None:
                return None
            if span.end is None:
                span.end = end
            if attrs:
                span.attrs.update(attrs)
            return span.end - span.start

    def _annotate(self, trace_id: str, span_id: str,
                  attrs: Dict[str, object]) -> None:
        with self._lock:
            record = self._traces.get(trace_id)
            span = record.spans.get(span_id) if record is not None else None
            if span is not None:
                span.attrs.update(attrs)

    def _link(self, trace_id: str, other: str) -> None:
        with self._lock:
            record = self._traces.get(trace_id)
            if record is not None and other not in record.links:
                record.links.append(other)

    def _seal(self, trace_id: str, stages: Dict[str, float]) -> None:
        with self._lock:
            record = self._traces.get(trace_id)
            if record is not None:
                record.stages = stages

    def _record_locked(self, trace_id: str) -> _TraceRecord:
        record = self._traces.get(trace_id)
        if record is None:
            record = _TraceRecord()
            self._traces[trace_id] = record
            while len(self._traces) > self.max_traces:
                oldest = next(iter(self._traces))
                del self._traces[oldest]
        return record

    # -- merge + query ----------------------------------------------------

    def ingest(self, spans: Sequence[Dict[str, object]]) -> int:
        """Merge remote span dicts (a shard's export) into local records."""
        if not self.enabled or not spans:
            return 0
        merged = 0
        with self._lock:
            for payload in spans:
                try:
                    span = Span.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    continue
                record = self._record_locked(span.trace_id)
                if span.span_id not in record.spans:
                    record.order.append(span.span_id)
                record.spans[span.span_id] = span
                merged += 1
        return merged

    def export_spans(self, trace_id: str) -> List[Dict[str, object]]:
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return []
            return [record.spans[sid].to_dict() for sid in record.order]

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def snapshot(self, trace_id: str) -> Optional[Dict[str, object]]:
        """Queryable view of one trace: flat spans, nested tree, stages,
        links, plus linked traces' spans when still retained."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            spans = [record.spans[sid].to_dict() for sid in record.order]
            links = list(record.links)
            stages = dict(record.stages)
            linked: Dict[str, List[Dict[str, object]]] = {}
            for other in links:
                other_record = self._traces.get(other)
                if other_record is not None:
                    linked[other] = [other_record.spans[sid].to_dict()
                                     for sid in other_record.order]
        return {
            "trace_id": trace_id,
            "spans": spans,
            "tree": span_tree(spans),
            "stages": stages,
            "links": links,
            "linked_spans": linked,
        }


def span_tree(spans: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Nest flat span dicts into ``{"span": ..., "children": [...]}`` trees.

    Spans whose parent is absent (or ``None``) become roots.  Children are
    ordered by start time; cross-process ties break on span id, which is
    deterministic per origin process.
    """
    nodes = {str(s["span_id"]): {"span": s, "children": []} for s in spans}
    roots: List[Dict[str, object]] = []
    ordered = sorted(spans, key=lambda s: (s["start"], str(s["span_id"])))
    for payload in ordered:
        node = nodes[str(payload["span_id"])]
        parent = payload.get("parent_id")
        if parent is not None and str(parent) in nodes:
            nodes[str(parent)]["children"].append(node)  # type: ignore[union-attr]
        else:
            roots.append(node)
    return roots


# -- ambient trace context (thread-local) ---------------------------------

_AMBIENT = threading.local()


class activate:
    """Make ``handles`` the ambient trace context for this thread.

    Used as ``with activate(handles): ...``.  The sequence is
    index-aligned with the work items being executed (entries may be
    ``None`` for untraced items) — :func:`current_handles` returns it
    verbatim so batch-aware layers (the cohort) can match member index ->
    handle, while :func:`span` simply fans out to every live handle.  A
    plain class rather than a generator context manager: the cohort
    switches context once per member per round.
    """

    __slots__ = ("_handles",)

    def __init__(self, handles: Sequence[Optional[TraceHandle]]) -> None:
        self._handles = tuple(handles)

    def __enter__(self) -> None:
        stack = getattr(_AMBIENT, "stack", None)
        if stack is None:
            stack = _AMBIENT.stack = []
        stack.append(self._handles)

    def __exit__(self, *exc_info: object) -> None:
        _AMBIENT.stack.pop()


def current_handles() -> Tuple[Optional[TraceHandle], ...]:
    stack = getattr(_AMBIENT, "stack", None)
    if not stack:
        return ()
    return stack[-1]


@contextmanager
def span(name: str, stage: Optional[str] = None,
         attrs_fn: Optional[Callable[[], Dict[str, object]]] = None,
         **attrs: object) -> Iterator[bool]:
    """Time a block into every live ambient trace (no-op when none).

    ``stage`` additionally accrues the duration into each handle's stage
    breakdown.  ``attrs_fn`` defers attribute construction until a trace
    is actually listening, keeping instrumented hot paths free when idle.
    Yields ``True`` when at least one trace recorded the span.

    The span lands in each trace as one retroactive :meth:`record` at
    block exit (one store op per handle instead of an open/close pair),
    timed by the first live handle's clock — handles activated together
    come from one server and share its clock.  The span parents under
    each handle's currently open span, exactly as open/close would.
    """
    live = [h for h in current_handles() if h is not None and not h.closed]
    if not live:
        yield False
        return
    if attrs_fn is not None:
        attrs = dict(attrs)
        attrs.update(attrs_fn())
    start = live[0].now()
    try:
        yield True
    finally:
        end = live[0].now()
        for handle in live:
            handle.record(name, start, end, stage=stage, **attrs)


__all__ = [
    "Clock",
    "FakeClock",
    "MonotonicClock",
    "Periodic",
    "Span",
    "TraceHandle",
    "Tracer",
    "activate",
    "current_handles",
    "span",
    "span_tree",
]
