"""The serving front-end: bounded queue, micro-batching, serve loop, metrics.

``MappingServer`` is the traffic layer in front of one
:class:`~repro.engine.MappingEngine`:

* **Admission control** — ``submit`` returns a future; when the house is
  full (queued + running ≥ ``max_queue``) it raises
  :class:`ServerOverloaded` carrying a ``retry_after_s`` hint instead of
  letting the queue grow without bound (the HTTP gateway maps this to
  ``429`` + ``Retry-After``).
* **Duplicate collapsing** — identical idempotent requests (same problem,
  searcher, budget, config, explicit seed) in flight at the same time are
  served by one search; followers get the same response re-stamped with
  their own tag.  A small LRU response cache extends the same idea across
  time.
* **Micro-batching** — admitted requests flow through a
  :class:`~repro.serve.batcher.MicroBatcher` coalescing requests across
  *all* problems in one queue (the megabatched cost kernels price a
  mixed union in a single pass), due on size, deadline, or
  high-priority arrival, then served by
  :func:`~repro.serve.cohort.serve_batch` whose cohort rounds union every
  live problem into a single prewarmed kernel call.
* **Serve loop** — one thread takes each due batch in
  ``(priority, arrival)`` order and runs it, so batches never overlap.
  Per-request responses are bit-identical to solo serving regardless of
  scheduling (seeded requests + row-exact kernels), so batching never
  changes answers.
* **Lifecycle** — ``drain()`` stops admission and waits for in-flight
  work; ``shutdown()`` drains and joins the threads.  The server is a
  context manager.

Every stage feeds the :class:`~repro.serve.metrics.MetricsRegistry`
snapshot: queue depth, batch-size histogram, latency quantiles, collapse
and rejection counters, plus the engine's oracle cache hit rate.  The
tracer, window ring, SLOs, sampler, profiler and their views come from
:class:`~repro.obs.core.Telemetry`, shared with the cluster router.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.costmodel.cache import problem_fingerprint
from repro.engine.engine import MappingEngine, MappingRequest, MappingResponse
from repro.engine.registry import resolve_searcher
from repro.obs import events as obs_events
from repro.obs.core import Telemetry, check_telemetry_config
from repro.obs.slo import DEFAULT_SLOS, SLOSpec, worst_state
from repro.obs.trace import TraceHandle, activate
from repro.serve.batcher import Batch, MicroBatcher, PendingRequest, Priority
from repro.serve.codec import request_key
from repro.serve.cohort import serve_batch
from repro.serve.metrics import MetricsRegistry


def _resolve_future(future: Future, value=None, error=None) -> None:
    """Resolve a future, tolerating client-side cancellation.

    A client may ``cancel()`` a future while its request is still queued;
    the work is cheap enough that the batch runs anyway (collapsed
    followers may still want the result), but setting a result on a
    cancelled future raises — and an exception here would kill the serve
    loop mid-batch and strand its batchmates.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
    except InvalidStateError:
        pass  # cancelled while queued; nothing is owed


class ServerOverloaded(RuntimeError):
    """Admission rejected: the queue is full.  Retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float, depth: int) -> None:
        super().__init__(
            f"server overloaded ({depth} requests in flight); "
            f"retry after {retry_after_s:.2f}s"
        )
        self.retry_after_s = retry_after_s
        self.depth = depth


class ServerClosed(RuntimeError):
    """Submission after ``drain``/``shutdown``."""


@dataclass
class ServeConfig:
    """Serving-layer knobs (engine knobs live on :class:`EngineConfig`)."""

    #: Most requests in one batch; this many waiting makes a batch due
    #: (size trigger).
    max_batch: int = 32
    #: A batch is due when its oldest request has waited this long and the
    #: server has been idle this long (deadline trigger).
    max_wait_s: float = 0.005
    #: Admission bound: queued + running requests before rejection.
    max_queue: int = 256
    #: Entries in the response LRU (0 disables response caching).
    response_cache_size: int = 1024
    #: Record per-request span trees + stage breakdowns (repro.obs).  Kept
    #: on by default: the bench gate holds the overhead under 5%.
    tracing: bool = True
    #: Finished/in-flight traces kept queryable at ``/v1/trace/<id>``.
    trace_capacity: int = 256
    #: Width of one time-series window (``/v1/timeseries``).
    timeseries_interval_s: float = 1.0
    #: Windows retained in the telemetry ring (oldest evicted).
    timeseries_capacity: int = 180
    #: Cadence of the background counter sampler feeding the ring (and
    #: driving SLO evaluation).
    sample_interval_s: float = 0.5
    #: Service-level objectives evaluated against the ring (a tuple so
    #: the config stays picklable across the cluster's spawn boundary).
    slos: Tuple[SLOSpec, ...] = DEFAULT_SLOS
    #: Continuous sampling profiler (``/v1/profile``).  Opt-in: the
    #: nightly bench gates its throughput cost under 3%, but a stack walk
    #: per interval is never literally free.
    profiling: bool = False
    #: Seconds between profiler stack samples when ``profiling`` is on.
    profile_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.response_cache_size < 0:
            raise ValueError(
                f"response_cache_size must be >= 0, got {self.response_cache_size}"
            )
        if self.profile_interval_s <= 0:
            raise ValueError(
                f"profile_interval_s must be > 0, got {self.profile_interval_s}"
            )
        check_telemetry_config(self)


class MappingServer(Telemetry):
    """High-throughput serving layer over one :class:`MappingEngine`."""

    def __init__(
        self,
        engine: MappingEngine,
        config: Optional[ServeConfig] = None,
        runner: Optional[
            Callable[[MappingEngine, Sequence[MappingRequest]], List[MappingResponse]]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
        learner=None,
    ) -> None:
        """``runner`` replaces the batch executor (tests inject stubs);
        ``clock`` replaces the monotonic clock for deterministic tests.
        ``learner`` (an :class:`~repro.learn.OnlineLearner`, or anything
        with ``metrics_snapshot()``) surfaces the online-learning loop —
        replay depth, model versions, gate scores, swap counts — in this
        server's metrics; the server observes it but does not own its
        lifecycle (start/stop it yourself, or via ``python -m
        repro.serve --learn``)."""
        self.engine = engine
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry(clock=clock)
        super().__init__(
            self.config, self.metrics.counts, clock=clock,
            profile_interval_s=(self.config.profile_interval_s
                                if self.config.profiling else None),
        )
        self._learner = learner
        self._watcher = None
        self._runner = runner or serve_batch
        self._clock = clock
        self._batcher = MicroBatcher(
            max_batch=self.config.max_batch, max_wait_s=self.config.max_wait_s
        )
        self._lock = threading.Lock()
        #: Signalled on every arrival, drain and finished batch: wakes the
        #: serve loop and ``drain`` waiters alike.
        self._changed = threading.Condition(self._lock)
        #: key -> [(tag, future, enqueued_at, trace_handle)] of collapsed
        #: followers (``trace_handle`` is ``None`` when tracing is off).
        self._inflight: Dict[
            Hashable, List[Tuple[str, Future, float, Optional[TraceHandle]]]
        ] = {}
        #: Followers across all keys; counted against ``max_queue`` so a
        #: duplicate-request storm can't grow state past admission control.
        self._follower_count = 0
        self._response_cache: "OrderedDict[Hashable, MappingResponse]" = OrderedDict()
        #: When the last batch ended.
        self._idle_since = float("-inf")
        #: Size of the running batch (0 while the loop waits).
        self._running_requests = 0
        self._accepting = True
        self._stopping = False
        # EMA of per-request service time, feeding the retry-after hint.
        self._service_ema_s = 0.05
        self._loop = threading.Thread(
            target=self._serve_loop, name="serve-loop", daemon=True
        )
        self._loop.start()
        self._start_telemetry()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        request: MappingRequest,
        priority: Priority = Priority.NORMAL,
        trace_parent: Optional[Tuple[str, str]] = None,
    ) -> "Future[MappingResponse]":
        """Enqueue one request; returns a future for its response.

        Raises :class:`ServerClosed` after drain/shutdown,
        :class:`ServerOverloaded` (with a retry hint) when the queue is
        full, and ``KeyError`` for an unregistered searcher — validated
        here so one bad request is refused at the door instead of
        poisoning the batch it would have been coalesced into.  Duplicate
        in-flight requests and response-cache hits resolve without
        touching the queue.

        ``trace_parent`` is a remote ``(trace_id, parent_span_id)`` pair
        (the cluster router's RPC span): when given, this request's trace
        adopts that id so the router can merge shard-side spans into one
        tree.
        """
        resolve_searcher(request.searcher)
        future: "Future[MappingResponse]" = Future()
        now = self._clock()
        key = request_key(request)
        cached_response: Optional[MappingResponse] = None
        with self._lock:
            if not self._accepting:
                raise ServerClosed("server is draining; not accepting requests")
            self.metrics.inc("submitted")
            if key is not None and self.config.response_cache_size:
                cached = self._response_cache.get(key)
                if cached is not None:
                    self._response_cache.move_to_end(key)
                    self.metrics.inc("response_cache_hits")
                    self._record_served(0.0, now)
                    cached_response = replace(cached, tag=request.tag)
            if cached_response is None:
                # Keyless requests never lead, so they find no followers.
                followers = self._inflight.get(key)
                if followers is not None:
                    # Collapsing is cheap but not free: followers hold
                    # futures and fan-out state, so they count against
                    # the same admission bound as queued requests.
                    self._refuse_if_full_locked()
                    handle = self._start_trace(
                        request, trace_parent, start=now, follower=True
                    )
                    followers.append((request.tag, future, now, handle))
                    self._follower_count += 1
                    self.metrics.inc("collapsed")
                    if priority == Priority.HIGH:
                        # A HIGH duplicate must not wait out the batching
                        # delay behind its NORMAL leader: a waiting leader
                        # goes HIGH (a running one needs nothing).
                        self._batcher.promote(key)
                        self._changed.notify_all()
                    return future
                self._refuse_if_full_locked()
                pending = PendingRequest(
                    request=request, future=future, priority=priority, key=key,
                    trace=self._start_trace(request, trace_parent, start=now),
                )
                if key is not None:
                    self._inflight[key] = []
                self._batcher.add(pending, now)
                self._changed.notify_all()
        if cached_response is not None:
            # Outside the lock: set_result runs client done-callbacks,
            # which must be free to call back into this server.  A cache
            # hit gets a trivial (already-finished) trace: zero admission
            # wait, no compute spans.
            handle = self._start_trace(
                request, trace_parent, start=now, cache_hit=True
            )
            if handle is not None:
                handle.record("admission", now, now, stage="admission_wait_s")
                handle.finish(end=now)
                cached_response = replace(
                    cached_response,
                    trace_id=handle.trace_id,
                    stages=dict(handle.stages),
                )
            self._label_served(request)
            _resolve_future(future, value=cached_response)
        return future

    def _start_trace(
        self,
        request: MappingRequest,
        trace_parent: Optional[Tuple[str, str]] = None,
        start: Optional[float] = None,
        **attrs: object,
    ) -> Optional[TraceHandle]:
        # Backdate the root to the admission timestamp so the retroactive
        # admission span nests inside it.
        return self.tracer.start_trace(
            "serve.request",
            parent=trace_parent,
            start=start,
            problem=request.problem.name,
            searcher=request.searcher,
            tag=request.tag,
            **attrs,
        )

    def _record_served(self, latency_s: float, now: float) -> None:
        """Count one served response and observe its latency."""
        self.metrics.inc("served")
        self.metrics.observe_latency(latency_s)
        self.timeseries.observe_latency(latency_s, now=now)

    def _label_served(self, request: MappingRequest, count: int = 1) -> None:
        self.metrics.inc_label(
            "served_by_algorithm", request.problem.algorithm, count
        )
        self.metrics.inc_label(
            "served_by_problem", problem_fingerprint(request.problem), count
        )

    def map(
        self,
        request: MappingRequest,
        priority: Priority = Priority.NORMAL,
        timeout: Optional[float] = None,
    ) -> MappingResponse:
        """Blocking convenience: ``submit`` and wait for the response."""
        return self.submit(request, priority=priority).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admission and make the batcher due — without waiting.

        The non-blocking half of :meth:`drain`, for shutdown sequences
        that must keep observing the server while in-flight work finishes
        (a shard answering health checks with ``"draining"`` until its
        last response is out).  Idempotent; already-admitted requests are
        still served, new submissions raise :class:`ServerClosed`.
        """
        with self._lock:
            self._accepting = False
            self._changed.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, serve what is queued, wait for in-flight work.

        Returns ``True`` when everything finished within ``timeout``.
        Already-admitted requests are always served (their futures
        resolve); new submissions raise :class:`ServerClosed`.
        """
        deadline = None if timeout is None else self._clock() + timeout
        self.begin_drain()
        with self._lock:
            while self._running_requests or self._batcher.depth:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                self._changed.wait(timeout=remaining)
        return True

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain, then stop and join the serve loop and samplers."""
        finished = self.drain(timeout=timeout)
        with self._lock:
            self._stopping = True
            self._changed.notify_all()
        self._loop.join(timeout=5.0)
        self._stop_telemetry()
        return finished

    def __enter__(self) -> "MappingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth_locked()

    @property
    def accepting(self) -> bool:
        """``False`` once :meth:`begin_drain`/:meth:`drain` has run."""
        with self._lock:
            return self._accepting

    def attach_watcher(self, watcher) -> None:
        """Surface a registry watcher (anything with ``snapshot()``) under
        ``"registry_watcher"`` in this server's metrics."""
        self._watcher = watcher

    def health_snapshot(self) -> Dict[str, object]:
        """The liveness dict the gateway serves at ``/v1/healthz``:
        drain state, queue depth, the installed surrogate registry
        version per (algorithm, accelerator fingerprint), and the SLO
        alert summary — the signals a fleet operator watches to confirm
        a swap propagated everywhere and nothing is burning budget."""
        states = self.slo.states()
        return {
            "status": "ok" if self.accepting else "draining",
            "queue_depth": self.queue_depth,
            "surrogate_versions": self.engine.surrogate_versions(),
            "slo": {
                "worst_state": worst_state(list(states.values())),
                "alerting": [name for name in sorted(states)
                             if states[name] != "ok"],
            },
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The live metrics dict the gateway serves at ``/metrics``."""
        with self._lock:
            depth = self._depth_locked()
        oracle = self.engine.oracle_stats()
        extra: Dict[str, object] = {
            "oracle_cache": None
            if oracle is None
            else {
                "hits": oracle.hits,
                "misses": oracle.misses,
                "prewarmed": oracle.prewarmed,
                "hit_rate": oracle.hit_rate,
                "size": oracle.size,
            },
            "response_cache_entries": len(self._response_cache),
            "surrogate_versions": self.engine.surrogate_versions(),
        }
        if self._learner is not None:
            extra["learning"] = self._learner.metrics_snapshot()
        if self._watcher is not None:
            extra["registry_watcher"] = self._watcher.snapshot()
        extra["slo"] = self.slo.snapshot()
        extra["timeseries"] = self.timeseries.latest_rates()
        return self.metrics.snapshot(queue_depth=depth, extra=extra)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _depth_locked(self) -> int:
        return self._batcher.depth + self._running_requests + self._follower_count

    def _retry_after_locked(self, depth: int) -> float:
        return max(self.config.max_wait_s, depth * self._service_ema_s)

    def _refuse_if_full_locked(self) -> None:
        """Raise :class:`ServerOverloaded` (counted, and emitted as an
        ``overloaded`` event) when admission would exceed ``max_queue``."""
        depth = self._depth_locked()
        if depth >= self.config.max_queue:
            self.metrics.inc("rejected")
            retry_after = self._retry_after_locked(depth)
            obs_events.emit(
                "overloaded", where="server", depth=depth,
                retry_after_s=retry_after,
            )
            raise ServerOverloaded(retry_after, depth)

    def _serve_loop(self) -> None:
        """Run every batch, one at a time, as the batcher makes one due.

        Batches are CPU-bound under one interpreter lock, so a batch
        started beside a running one buys no parallelism: the two hand
        the lock back and forth and both crawl (two concurrent batches of
        four ``gradient`` requests took ~1.2 s each on a 2-vCPU VM, one
        batch of all eight ~0.55 s).  So one thread runs them all, and
        while a batch runs, arrivals wait in the batcher and keep
        coalescing toward ``max_batch``.  When it ends, a full queue or a
        waiting high-priority request goes at once; anything else waits
        out the deadline, which on an idle server bounds the *added*
        latency by ``max_wait_s`` and lets the requests just answered
        return and join the queue, so a closed-loop client's wave stays
        merged.  After ``begin_drain`` whatever waits is due.
        """
        while True:
            with self._lock:
                while True:
                    now = self._clock()
                    trigger = self._batcher.due(now, self._idle_since)
                    if not (trigger or self._accepting) and self._batcher.depth:
                        trigger = "drain"
                    if trigger is not None:
                        break
                    if self._stopping:
                        return
                    deadline = self._batcher.next_deadline(self._idle_since)
                    self._changed.wait(
                        None if deadline is None else max(deadline - now, 0.0)
                    )
                batch = self._batcher.take(trigger, now)
                self._running_requests = len(batch)
            try:
                self._execute(batch)
            except BaseException as error:  # noqa: BLE001 — the loop never dies
                # _execute handles runner failures itself; anything landing
                # here is a server bug, but killing the thread would strand
                # every queued request.  Fail this batch's futures (no-op
                # for any already resolved) and keep serving.
                for item in batch.items:
                    self._fail_item(item, error)
            finally:
                with self._lock:
                    self._running_requests = 0
                    self._idle_since = self._clock()
                    self._changed.notify_all()

    def _execute(self, batch: Batch) -> None:
        started = batch.taken_at
        items = batch.items
        self.metrics.observe_batch(len(items))
        self.timeseries.observe_batch(len(items), now=started)
        handles = [item.trace for item in items]
        for item in items:
            handle = item.trace
            if isinstance(handle, TraceHandle):
                # Queue time is only known once the loop takes the batch,
                # so the admission span is recorded retroactively.
                handle.record(
                    "admission", item.enqueued_at, started,
                    stage="admission_wait_s", trigger=batch.trigger,
                    batch=len(items),
                )
        try:
            # The ambient context is index-aligned with the runner's
            # request list; the cohort and the oracle's kernel spans
            # attribute work to the right member through it.
            with activate(handles):
                responses = self._runner(
                    self.engine, [item.request for item in items]
                )
        except BaseException as error:  # noqa: BLE001 — isolate, then report
            if len(items) == 1:
                self._fail_item(items[0], error)
            else:
                # Fault isolation: one poisoned request (bad config, a
                # searcher that raises mid-run) must not take down the
                # innocent requests coalesced into its batch — rerun each
                # solo so every future gets its own fate.
                for item in items:
                    self._execute_solo(item)
            return
        finished = self._clock()
        elapsed = finished - started
        if items:
            # EMA over per-request service time steers the retry-after hint;
            # _retry_after_locked reads it under the lock.
            per_request = elapsed / len(items)
            with self._lock:
                self._service_ema_s += 0.2 * (per_request - self._service_ema_s)
        for item, response in zip(items, responses):
            self._finish_item(item, response, finished)

    def _execute_solo(self, item: PendingRequest) -> None:
        try:
            with activate([item.trace]):
                [response] = self._runner(self.engine, [item.request])
        except BaseException as error:  # noqa: BLE001 — per-item fate
            self._fail_item(item, error)
        else:
            self._finish_item(item, response, self._clock())

    def _finish_item(
        self, item: PendingRequest, response: MappingResponse, finished: float
    ) -> None:
        followers = self._pop_followers(item.key)
        handle = item.trace
        if isinstance(handle, TraceHandle) and not handle.closed:
            handle.finish(end=finished)
            # ``replace`` shares mutable fields, so every re-stamp below
            # must carry its own fresh ``stages`` dict.  (Stub runners in
            # tests may return non-dataclass sentinels — skip those.)
            if isinstance(response, MappingResponse):
                response = replace(
                    response,
                    trace_id=handle.trace_id,
                    stages=dict(handle.stages),
                )
        self._record_served(finished - item.enqueued_at, finished)
        self._label_served(item.request, 1 + len(followers))
        self._cache_response(item.key, response)
        _resolve_future(item.future, value=response)
        for tag, future, enqueued_at, fhandle in followers:
            self._record_served(finished - enqueued_at, finished)
            follower_response = replace(response, tag=tag)
            if fhandle is not None and not fhandle.closed:
                # A follower shares the leader's compute (its trace links
                # to the leader's kernel/search spans) but waited out the
                # whole service in admission — its own span records that,
                # and its stage breakdown sums to its own wall latency.
                fhandle.record(
                    "admission", enqueued_at, finished,
                    stage="admission_wait_s",
                )
                if isinstance(handle, TraceHandle):
                    fhandle.link(handle.trace_id)
                    fhandle.annotate(leader_trace=handle.trace_id)
                fhandle.finish(end=finished)
                if isinstance(response, MappingResponse):
                    follower_response = replace(
                        response, tag=tag, trace_id=fhandle.trace_id,
                        stages=dict(fhandle.stages),
                    )
            _resolve_future(future, value=follower_response)

    def _fail_item(self, item: PendingRequest, error: BaseException) -> None:
        self.metrics.inc("errors")
        handle = item.trace
        if isinstance(handle, TraceHandle) and not handle.closed:
            handle.annotate(error=type(error).__name__)
            handle.finish()
        _resolve_future(item.future, error=error)
        for _tag, future, _enqueued_at, fhandle in self._pop_followers(item.key):
            self.metrics.inc("errors")
            if fhandle is not None and not fhandle.closed:
                fhandle.annotate(error=type(error).__name__)
                fhandle.finish()
            _resolve_future(future, error=error)

    def _pop_followers(
        self, key: Optional[Hashable]
    ) -> List[Tuple[str, Future, float, Optional[TraceHandle]]]:
        if key is None:
            return []
        with self._lock:
            followers = self._inflight.pop(key, [])
            self._follower_count -= len(followers)
            return followers

    def _cache_response(
        self, key: Optional[Hashable], response: MappingResponse
    ) -> None:
        if key is None or not self.config.response_cache_size:
            return
        with self._lock:
            self._response_cache[key] = response
            self._response_cache.move_to_end(key)
            while len(self._response_cache) > self.config.response_cache_size:
                self._response_cache.popitem(last=False)


__all__ = [
    "MappingServer",
    "Priority",
    "ServeConfig",
    "ServerClosed",
    "ServerOverloaded",
]
