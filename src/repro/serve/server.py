"""The serving front-end: bounded queue, micro-batching, workers, metrics.

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
  mixed union in a single pass), flushed on size, deadline, or
  high-priority arrival, then served by
  :func:`~repro.serve.cohort.serve_batch` whose cohort rounds union every
  live problem into a single prewarmed kernel call.
* **Workers** — a small thread pool drains flushed batches in
  ``(priority, arrival)`` order.  Deadline flushes wait for an idle
  server, so a second batch never starts beside a running one only
  because a timer fired (size and priority flushes take any idle
  worker).  Per-request responses are bit-identical
  to solo serving regardless of scheduling (seeded requests + row-exact
  kernels), so concurrency never changes answers.
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

import heapq
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace
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
    cancelled future raises — and an exception here would kill the worker
    thread mid-batch and strand its batchmates.
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

    #: Flush the batcher at this many requests (size trigger).
    max_batch: int = 32
    #: Flush the batcher when its oldest request has waited this long and the
    #: server has been idle this long (deadline trigger).
    max_wait_s: float = 0.005
    #: Admission bound: queued + running requests before rejection.
    max_queue: int = 256
    #: Worker threads draining flushed batches.
    workers: int = 2
    #: Collapse identical in-flight requests onto one search.
    collapse_duplicates: bool = True
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
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.response_cache_size < 0:
            raise ValueError(
                f"response_cache_size must be >= 0, got {self.response_cache_size}"
            )
        if self.profile_interval_s <= 0:
            raise ValueError(
                f"profile_interval_s must be > 0, got {self.profile_interval_s}"
            )
        check_telemetry_config(self)


@dataclass(order=True)
class _Job:
    """Heap entry: flushed batch ordered by (priority, arrival)."""

    sort_key: Tuple[int, int]
    batch: Batch = field(compare=False)


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
        self._work_available = threading.Condition(self._lock)
        self._dispatch_wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._ready: List[_Job] = []
        #: key -> [(tag, future, enqueued_at, trace_handle)] of collapsed
        #: followers (``trace_handle`` is ``None`` when tracing is off).
        self._inflight: Dict[
            Hashable, List[Tuple[str, Future, float, Optional[TraceHandle]]]
        ] = {}
        #: Followers across all keys; counted against ``max_queue`` so a
        #: duplicate-request storm can't grow state past admission control.
        self._follower_count = 0
        self._response_cache: "OrderedDict[Hashable, MappingResponse]" = OrderedDict()
        self._running_batches = 0
        #: When the last batch ended with nothing queued behind it.
        self._idle_since = float("-inf")
        self._running_requests = 0
        self._accepting = True
        self._stopping = False
        # EMA of per-request service time, feeding the retry-after hint.
        self._service_ema_s = 0.05
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._workers = [
            threading.Thread(
                target=self._work_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        self._dispatcher.start()
        for worker in self._workers:
            worker.start()
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
        key = request_key(request) if (
            self.config.collapse_duplicates or self.config.response_cache_size
        ) else None
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
                if key is not None and self.config.collapse_duplicates:
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
                            # A HIGH duplicate must not wait out the
                            # batching delay behind its NORMAL leader.
                            # Flush the batcher only if the leader is
                            # actually still in it (a newer batch must not
                            # jump the queue by accident); otherwise
                            # upgrade the queued job carrying it.
                            if self._batcher.holds(key):
                                self._enqueue_batch_locked(
                                    self._batcher.flush("priority", now),
                                    priority=Priority.HIGH,
                                )
                            else:
                                self._promote_ready_job_locked(key)
                        return future
                self._refuse_if_full_locked()
                pending = PendingRequest(
                    request=request, future=future, priority=priority, key=key,
                    trace=self._start_trace(request, trace_parent, start=now),
                )
                if key is not None and self.config.collapse_duplicates:
                    self._inflight[key] = []
                flushed = self._batcher.add(pending, now)
                if flushed is not None:
                    self._enqueue_batch_locked(flushed)
                else:
                    # New deadline may be earlier than the dispatcher's nap.
                    self._dispatch_wake.notify()
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
        """Stop admission and flush the batcher — without waiting.

        The non-blocking half of :meth:`drain`, for shutdown sequences
        that must keep observing the server while in-flight work finishes
        (a shard answering health checks with ``"draining"`` until its
        last response is out).  Idempotent; already-admitted requests are
        still served, new submissions raise :class:`ServerClosed`.
        """
        with self._lock:
            self._accepting = False
            for batch in self._batcher.flush_all(self._clock()):
                self._enqueue_batch_locked(batch)
            self._dispatch_wake.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, flush the batcher, wait for in-flight work.

        Returns ``True`` when everything finished within ``timeout``.
        Already-admitted requests are always served (their futures
        resolve); new submissions raise :class:`ServerClosed`.
        """
        deadline = None if timeout is None else self._clock() + timeout
        self.begin_drain()
        with self._lock:
            while self._ready or self._running_batches or self._batcher.depth:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain, then stop and join dispatcher, workers, and samplers."""
        finished = self.drain(timeout=timeout)
        with self._lock:
            self._stopping = True
            self._dispatch_wake.notify_all()
            self._work_available.notify_all()
        self._dispatcher.join(timeout=5.0)
        for worker in self._workers:
            worker.join(timeout=5.0)
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

    def attach_learner(self, learner) -> None:
        """Surface ``learner.metrics_snapshot()`` under ``"learning"`` in
        this server's metrics (same contract as the constructor param)."""
        self._learner = learner

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
        queued = self._batcher.depth + sum(len(job.batch) for job in self._ready)
        return queued + self._running_requests + self._follower_count

    def _retry_after_locked(self, depth: int) -> float:
        workers = max(self.config.workers, 1)
        return max(self.config.max_wait_s, depth * self._service_ema_s / workers)

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

    def _promote_ready_job_locked(self, key: Hashable) -> None:
        """Re-key any queued job carrying ``key``'s leader to HIGH priority."""
        promoted = False
        for job in self._ready:
            if any(item.key == key for item in job.batch.items):
                job.sort_key = (int(Priority.HIGH), job.sort_key[1])
                promoted = True
        if promoted:
            heapq.heapify(self._ready)

    def _enqueue_batch_locked(
        self, batch: Batch, priority: Optional[Priority] = None
    ) -> None:
        sort_key = batch.order_key()
        if priority is not None:
            # Upgrade (never downgrade) — e.g. a HIGH duplicate collapsing
            # onto a NORMAL leader promotes the leader's whole batch.
            sort_key = (min(int(priority), sort_key[0]), sort_key[1])
        heapq.heappush(self._ready, _Job(sort_key=sort_key, batch=batch))
        self._work_available.notify()

    def _dispatch_loop(self) -> None:
        """Flush a deadline-due batcher — but only onto an idle server.

        Batches are CPU-bound under one interpreter lock, so a batch
        started beside a running one buys no parallelism: the two hand
        the lock back and forth and both crawl (two concurrent batches of
        four ``gradient`` requests took ~1.2 s each on a 2-vCPU VM, one
        batch of all eight ~0.55 s).  And two batches started apart keep
        finishing apart, so a closed-loop client's waves stay split.  So
        while a batch runs or waits for a worker, due requests stay in the
        batcher and keep coalescing — they grow toward ``max_batch`` (the
        size trigger still fires under the lock at admission, and
        high-priority arrivals still flush at once).  On an idle server
        ``max_wait_s`` bounds the *added* latency: the batcher flushes once
        its oldest request has waited ``max_wait_s`` and the server has
        been idle for ``max_wait_s``.  The second window lets the
        requests just answered return and join the held queue, so a split
        wave merges again on its next round.  Batch sizes still adapt to
        load: singletons when idle, full batches under saturation.
        """
        with self._lock:
            while not self._stopping:
                now = self._clock()
                # Busy: sleep until a worker's idle notification.
                wait = None
                if not self._running_batches and not self._ready:
                    settled = self._idle_since + self.config.max_wait_s
                    if now >= settled:
                        for batch in self._batcher.poll(now):
                            self._enqueue_batch_locked(batch)
                    deadline = self._batcher.next_deadline()
                    if deadline is not None:
                        wait = max(max(deadline, settled) - now, 0.0)
                self._dispatch_wake.wait(timeout=wait)

    def _work_loop(self) -> None:
        while True:
            with self._lock:
                while not self._ready and not self._stopping:
                    self._work_available.wait()
                if self._stopping and not self._ready:
                    return
                job = heapq.heappop(self._ready)
                self._running_batches += 1
                self._running_requests += len(job.batch)
            try:
                self._execute(job.batch)
            except BaseException as error:  # noqa: BLE001 — workers never die
                # _execute handles runner failures itself; anything landing
                # here is a server bug, but killing the thread would strand
                # every queued request.  Fail this batch's futures (no-op
                # for any already resolved) and keep serving.
                for item in job.batch.items:
                    self._fail_item(item, error)
            finally:
                with self._lock:
                    self._running_batches -= 1
                    self._running_requests -= len(job.batch)
                    if not self._running_batches and not self._ready:
                        self._idle_since = self._clock()
                    # A worker just freed up: a due queue may now flush.
                    self._dispatch_wake.notify()
                    self._idle.notify_all()

    def _execute(self, batch: Batch) -> None:
        started = self._clock()
        items = batch.items
        self.metrics.observe_batch(len(items))
        self.timeseries.observe_batch(len(items), now=started)
        handles = [item.trace for item in items]
        for item in items:
            handle = item.trace
            if isinstance(handle, TraceHandle):
                # Queue time is only known once a worker picks the batch
                # up, so both wait spans are recorded retroactively.
                handle.record(
                    "admission", item.enqueued_at, batch.flushed_at,
                    stage="admission_wait_s", trigger=batch.trigger,
                )
                handle.record(
                    "batch.wait", batch.flushed_at, started,
                    stage="batch_wait_s", batch=len(items),
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
            # EMA over per-request service time steers the retry-after hint.
            # _retry_after_locked reads this under the lock, so the
            # read-modify-write must hold it too or concurrent batches
            # lose each other's updates.
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
