"""The cluster front door: consistent-hash routing over N shard processes.

``ClusterRouter`` owns a fleet of :func:`~repro.cluster.shard.run_shard`
worker processes and presents the same serving surface as one
``MappingServer`` — ``submit``/``map`` returning futures, ``drain``/
``shutdown``, ``metrics_snapshot``/``health_snapshot`` — so the existing
HTTP gateway fronts a cluster unchanged (``start_gateway(router)``).

* **Routing** — requests hash by
  :func:`~repro.cluster.hashing.problem_fingerprint`; all traffic for a
  problem lands on one shard, keeping that shard's response cache,
  memoized oracle, surrogates, and replay reservoirs hot (the caches are
  *partitioned*, not diluted).
* **Failover** — a request whose owner is dead walks the key's ring chain
  to the next live shard.  Seeded requests are idempotent (the whole
  serving stack is deterministic per seed) and unseeded requests accept
  any valid answer, so retrying elsewhere is always safe.
* **Supervision** — a monitor thread pings every shard; a dead process
  (or one failing ``health_failures`` consecutive pings) is respawned
  with the *same shard id*, so the ring never changes shape — the new
  process simply starts with cold caches on a new port.
* **Backpressure** — the router bounds its own in-flight count
  (:class:`ServerOverloaded` → HTTP 429 via the gateway) and propagates a
  shard's own overload verdict with its retry hint.
* **Fleet view** — ``metrics_snapshot`` aggregates every shard's snapshot
  plus router-side counters (failovers, respawns, rejected) and
  router-measured end-to-end latency quantiles; ``health_snapshot``
  merges per-shard surrogate registry versions so swap propagation is
  one GET away.  Every fleet view is one :meth:`ClusterRouter._fan_out`
  of a shard view op followed by one pure ``merge_*`` function; the
  router's own tracer, ring, SLOs and sampler come from
  :class:`~repro.obs.core.Telemetry`, shared with ``MappingServer``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.costmodel.accelerator import Accelerator
from repro.engine.engine import EngineConfig, MappingRequest, MappingResponse
from repro.engine.registry import resolve_searcher
from repro.obs import events as obs_events
from repro.obs.core import Telemetry, check_telemetry_config
from repro.obs.sketch import LatencySketch
from repro.obs.slo import DEFAULT_SLOS, SLOSpec, worst_state
from repro.obs.trace import TraceHandle
from repro.serve.batcher import Priority
from repro.serve.codec import request_to_dict, response_from_dict, trace_to_dict
from repro.serve.metrics import Counter
from repro.serve.server import ServeConfig, ServerClosed, ServerOverloaded
from repro.cluster.hashing import HashRing, problem_fingerprint
from repro.cluster.rpc import ConnectionPool
from repro.cluster.shard import ShardSpec, run_shard


class NoLiveShards(RuntimeError):
    """Every shard in the request's failover chain was unreachable."""


@dataclass
class ClusterConfig:
    """Fleet-level knobs; per-shard knobs ride along on nested configs."""

    num_shards: int = 2
    host: str = "127.0.0.1"
    accelerator: Optional[Accelerator] = None
    engine: EngineConfig = field(default_factory=EngineConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: Non-``None`` runs an OnlineLearner on every shard (needs
    #: ``registry_dir`` for cross-shard propagation).
    learn: Optional[object] = None
    #: Shared model-registry directory; enables the per-shard
    #: RegistryWatcher that propagates gate-passed surrogates fleet-wide.
    registry_dir: Optional[Path] = None
    watch_interval_s: float = 0.25
    #: Virtual nodes per shard on the consistent-hash ring.
    ring_replicas: int = 64
    #: Router admission bound (independent of each shard's own bound).
    max_inflight: int = 512
    #: Pooled RPC connections per shard (also the per-shard concurrency).
    per_shard_connections: int = 8
    request_timeout_s: float = 300.0
    health_interval_s: float = 0.5
    #: Consecutive failed pings before a shard is declared dead.
    health_failures: int = 3
    #: Respawn dead shards (same shard id, new process, new port).
    respawn: bool = True
    #: How long a shard process may take to report readiness (imports +
    #: engine construction; surrogates still train lazily afterwards).
    spawn_timeout_s: float = 120.0
    drain_timeout_s: float = 30.0
    #: Router-side tracing: every routed request gets a trace whose shard
    #: spans are merged back in (shards trace per their own ServeConfig).
    tracing: bool = True
    trace_capacity: int = 512
    #: Router-side SLOs, evaluated against *end-to-end* latency (queueing
    #: + RPC + shard service) and router counters; shards also run their
    #: own per their ServeConfig.
    slos: Tuple[SLOSpec, ...] = DEFAULT_SLOS
    timeseries_interval_s: float = 1.0
    timeseries_capacity: int = 180
    sample_interval_s: float = 0.5

    def __post_init__(self) -> None:
        check_telemetry_config(self)
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.per_shard_connections < 1:
            raise ValueError(
                "per_shard_connections must be >= 1, "
                f"got {self.per_shard_connections}"
            )


class ShardHandle:
    """Router-side state for one shard id: process, address, pool, health."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.pool: Optional[ConnectionPool] = None
        self.live = False
        self.failures = 0
        self.respawns = 0
        self.lock = threading.Lock()

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    def snapshot(self) -> Dict[str, object]:
        return {
            "status": "live" if self.live else "down",
            "port": self.port,
            "pid": self.pid,
            "respawns": self.respawns,
            "consecutive_failures": self.failures,
        }


class ClusterRouter(Telemetry):
    """N shard processes behind one consistent-hash front door."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self._ctx = multiprocessing.get_context("spawn")
        self._ring = HashRing(replicas=self.config.ring_replicas)
        self._handles: Dict[int, ShardHandle] = {}
        for shard_id in range(self.config.num_shards):
            self._ring.add(shard_id)
            self._handles[shard_id] = ShardHandle(self._spec_for(shard_id))
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.num_shards
            * self.config.per_shard_connections,
            thread_name_prefix="cluster-router",
        )
        self._lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._accepting = False
        self._stopping = False
        self.latency = LatencySketch()
        self.counters = {
            name: Counter()
            for name in (
                "submitted",
                "served",
                "rejected",
                "errors",
                "failovers",
                "respawns",
                "rpc_failures",
            )
        }
        self._monitor: Optional[threading.Thread] = None
        self._monitor_wake = threading.Event()
        super().__init__(self.config, self._counter_values)
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spec_for(self, shard_id: int) -> ShardSpec:
        return ShardSpec(
            shard_id=shard_id,
            host=self.config.host,
            accelerator=self.config.accelerator,
            engine=self.config.engine,
            serve=self.config.serve,
            learn=self.config.learn,
            registry_dir=self.config.registry_dir,
            watch_registry=self.config.registry_dir is not None,
            watch_interval_s=self.config.watch_interval_s,
            request_timeout_s=self.config.request_timeout_s,
            drain_timeout_s=self.config.drain_timeout_s,
        )

    def start(self) -> "ClusterRouter":
        """Spawn every shard, wait for readiness, start the monitor."""
        if self._accepting:
            return self
        for handle in self._handles.values():
            self._spawn_shard(handle)
        self._accepting = True
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        self._start_telemetry()
        return self

    def _spawn_shard(self, handle: ShardHandle) -> None:
        """(Re)start one shard process and wait for its ready handshake."""
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=run_shard,
            args=(handle.spec, child),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        child.close()  # the child's end lives in the child now
        if not parent.poll(self.config.spawn_timeout_s):
            process.terminate()
            raise RuntimeError(
                f"shard {handle.shard_id} did not report ready within "
                f"{self.config.spawn_timeout_s}s"
            )
        message = parent.recv()
        parent.close()
        if message[0] != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(
                f"shard {handle.shard_id} failed to start:\n{message[1]}"
            )
        _tag, port, pid = message
        old_pool = handle.pool
        with handle.lock:
            handle.process = process
            handle.port = port
            handle.pid = pid
            handle.pool = ConnectionPool(
                handle.spec.host,
                port,
                maxsize=self.config.per_shard_connections,
            )
            handle.failures = 0
            handle.live = True
        if old_pool is not None:
            old_pool.close()

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission; wait for router-side in-flight work to finish."""
        deadline = None if timeout is None else time.monotonic() + timeout
        self._accepting = False
        with self._lock:
            while self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain, gracefully stop every shard, join processes and threads."""
        finished = self.drain(timeout=timeout)
        self._stopping = True
        self._stop_telemetry()
        self._monitor_wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self._handles.values():
            with handle.lock:
                pool, process = handle.pool, handle.process
                handle.live = False
            if pool is not None:
                try:
                    pool.call({"op": "shutdown"}, timeout_s=5.0)
                except (ConnectionError, OSError, RuntimeError):
                    pass
                pool.close()
            if process is not None:
                process.join(timeout=self.config.drain_timeout_s)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
        self._executor.shutdown(wait=False)
        return finished

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def shard_for(self, request: MappingRequest) -> int:
        """The shard id that owns this request's problem."""
        return self._ring.node_for(problem_fingerprint(request.problem))

    def submit(
        self,
        request: MappingRequest,
        priority: Priority = Priority.NORMAL,
        include_trace: bool = False,
    ) -> "Future[MappingResponse]":
        """Route one request to its shard; returns a future.

        Same admission contract as ``MappingServer.submit``: raises
        :class:`ServerClosed` after drain, :class:`ServerOverloaded` when
        the router's in-flight bound is hit, ``KeyError``/``TypeError``
        for requests that are invalid or can't cross the wire.
        """
        if not self._accepting:
            raise ServerClosed("cluster router is draining; not accepting")
        resolve_searcher(request.searcher)  # refuse at the door, like serve
        payload = {
            "op": "map",
            "request": request_to_dict(request),  # raises for non-wire configs
            "priority": "high" if priority == Priority.HIGH else "normal",
            "include_trace": include_trace,
        }
        with self._lock:
            # Every admission attempt counts as submitted — the
            # availability SLO reads bad=rejected over total=submitted,
            # so a rejection that never counted as a submission would be
            # invisible to burn-rate accounting (a full outage would
            # read as 0/0 = healthy).  Same semantics as the
            # single-server path in ``MappingServer.submit``.
            self.counters["submitted"].inc()
            if self._inflight >= self.config.max_inflight:
                self.counters["rejected"].inc()
                retry_after = max(
                    1.0, self._inflight / (10.0 * len(self._handles))
                )
                depth = self._inflight
            else:
                retry_after = None
                depth = 0
                self._inflight += 1
        if retry_after is not None:
            obs_events.emit(
                "overloaded", where="router", depth=depth,
                retry_after_s=retry_after,
            )
            raise ServerOverloaded(retry_after_s=retry_after, depth=depth)
        handle = self.tracer.start_trace(
            "cluster.request",
            problem=request.problem.name,
            searcher=request.searcher,
            tag=request.tag,
        )
        enqueued = time.monotonic()
        try:
            return self._executor.submit(
                self._dispatch, request, payload, enqueued, handle
            )
        except BaseException:
            with self._lock:
                self._inflight -= 1
                self._idle.notify_all()
            raise

    def map(
        self,
        request: MappingRequest,
        priority: Priority = Priority.NORMAL,
        timeout: Optional[float] = None,
    ) -> MappingResponse:
        """Blocking convenience: ``submit`` and wait."""
        return self.submit(request, priority=priority).result(timeout=timeout)

    def _dispatch(
        self,
        request: MappingRequest,
        payload: Dict,
        enqueued: float,
        trace: Optional[TraceHandle] = None,
    ) -> MappingResponse:
        """Executor body: walk the failover chain until a shard answers."""
        try:
            key = problem_fingerprint(request.problem)
            chain = self._ring.chain_for(key)
            last_error: Optional[BaseException] = None
            for attempt, shard_id in enumerate(chain):
                handle = self._handles[shard_id]
                with handle.lock:
                    pool = handle.pool if handle.live else None
                if pool is None:
                    continue
                # One "shard.rpc" span per attempt: failed attempts stay in
                # the tree as closed siblings carrying the error, so a
                # failover reads as hop -> hop under the router's root.
                rpc_span = None
                attempt_payload = payload
                if trace is not None and not trace.closed:
                    rpc_span = trace.open_span(
                        "shard.rpc", shard=shard_id, attempt=attempt
                    )
                    attempt_payload = dict(payload)
                    attempt_payload["trace"] = trace_to_dict(
                        trace.trace_id, rpc_span
                    )
                try:
                    reply = pool.call(
                        attempt_payload,
                        timeout_s=self.config.request_timeout_s,
                    )
                except (ConnectionError, OSError, RuntimeError) as error:
                    # The shard is gone or its stream broke mid-call.
                    # Seeded requests are idempotent and unseeded ones
                    # accept any valid answer, so retry on the next shard
                    # in the chain; the monitor will respawn this one.
                    last_error = error
                    self.counters["rpc_failures"].inc()
                    if trace is not None:
                        trace.close_span(
                            rpc_span, error=type(error).__name__
                        )
                    with handle.lock:
                        handle.failures += 1
                    self._monitor_wake.set()
                    continue
                if not reply.get("ok") and reply.get("kind") == "closed":
                    # Draining shard (respawn window): its keys are welcome
                    # on the next shard in the chain until it's back.
                    last_error = ServerClosed(str(reply.get("error")))
                    if trace is not None:
                        trace.close_span(rpc_span, error="closed")
                    continue
                if attempt > 0:
                    self.counters["failovers"].inc()
                    obs_events.emit(
                        "failover",
                        problem=request.problem.name,
                        served_by=shard_id,
                        attempts=attempt + 1,
                    )
                if trace is not None:
                    self.tracer.ingest(reply.get("spans") or [])
                    trace.close_span(rpc_span)
                response = self._decode_reply(reply, shard_id)
                if trace is not None and not trace.closed:
                    finished = trace.now()
                    trace.annotate(shard=shard_id)
                    trace.finish(end=finished)
                    # The shard's stage breakdown plus the router's own
                    # share (queueing + RPC + decode) sums to the
                    # end-to-end latency this caller observed.
                    shard_stages = dict(response.stages or {})
                    shard_stages["router_overhead_s"] = max(
                        (finished - enqueued) - sum(shard_stages.values()),
                        0.0,
                    )
                    response = replace(
                        response,
                        trace_id=trace.trace_id,
                        stages=shard_stages,
                    )
                return response
            self.counters["errors"].inc()
            raise NoLiveShards(
                f"no live shard could serve {request.problem.name!r} "
                f"(chain {chain}; last error: {last_error})"
            )
        except BaseException as error:
            if not isinstance(error, NoLiveShards):
                self.counters["errors"].inc()
            if trace is not None and not trace.closed:
                trace.annotate(error=type(error).__name__)
                trace.finish()
            raise
        finally:
            elapsed = time.monotonic() - enqueued
            self.latency.observe(elapsed)
            self.timeseries.observe_latency(elapsed)
            with self._lock:
                self._inflight -= 1
                self._idle.notify_all()

    def _decode_reply(self, reply: Dict, shard_id: int) -> MappingResponse:
        if reply.get("ok"):
            self.counters["served"].inc()
            return response_from_dict(reply["response"])
        kind = reply.get("kind")
        error = reply.get("error", "unknown shard error")
        if kind == "overloaded":
            raise ServerOverloaded(
                retry_after_s=float(reply.get("retry_after_s", 1.0)),
                depth=self.config.max_inflight,
            )
        if kind == "closed":
            raise ServerClosed(f"shard {shard_id} is draining: {error}")
        if kind == "bad_request":
            raise ValueError(f"shard {shard_id} refused request: {error}")
        raise RuntimeError(f"shard {shard_id} failed: {error}")

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        interval = self.config.health_interval_s
        while not self._stopping:
            self._monitor_wake.wait(timeout=interval)
            self._monitor_wake.clear()
            if self._stopping:
                return
            for handle in self._handles.values():
                if self._stopping:
                    return
                self._check_shard(handle)

    def _check_shard(self, handle: ShardHandle) -> None:
        with handle.lock:
            process, pool, live = handle.process, handle.pool, handle.live
        dead = process is None or not process.is_alive()
        if not dead and live and pool is not None:
            try:
                reply = pool.call({"op": "ping"}, timeout_s=2.0)
                ok = bool(reply.get("ok"))
            except (ConnectionError, OSError, RuntimeError):
                ok = False
            with handle.lock:
                if ok:
                    handle.failures = 0
                    return
                handle.failures += 1
                dead = handle.failures >= self.config.health_failures
        if not dead:
            return
        with handle.lock:
            was_live = handle.live
            handle.live = False
        if was_live:
            obs_events.emit("shard_down", shard=handle.shard_id)
        if not self.config.respawn or not self._accepting:
            return
        # Same shard id — the ring is untouched; only the address changes.
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        try:
            self._spawn_shard(handle)
        except RuntimeError:
            return  # next monitor pass retries
        handle.respawns += 1
        self.counters["respawns"].inc()
        obs_events.emit(
            "shard_respawned",
            shard=handle.shard_id,
            pid=handle.pid,
            respawns=handle.respawns,
        )

    # ------------------------------------------------------------------
    # Fleet introspection
    # ------------------------------------------------------------------

    def _counter_values(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in self.counters.items()}

    def _fan_out(
        self, op: str, timeout_s: float = 10.0, **fields: object
    ) -> Dict[str, Optional[object]]:
        """Every shard's ``op`` view by shard id, ``None`` for a shard that
        is down or fails the call."""
        views: Dict[str, Optional[object]] = {}
        for shard_id, handle in sorted(self._handles.items()):
            with handle.lock:
                pool = handle.pool if handle.live else None
            reply = None
            if pool is not None:
                try:
                    reply = pool.call(dict(fields, op=op), timeout_s=timeout_s)
                except (ConnectionError, OSError, RuntimeError):
                    pass
            views[str(shard_id)] = (
                reply.get(op) if reply is not None and reply.get("ok") else None
            )
        return views

    def metrics_snapshot(self) -> Dict[str, object]:
        """Fleet view: per-shard snapshots + router aggregates.

        ``fleet`` sums the additive counters across live shards and merges
        surrogate versions; ``router`` carries the router's own counters
        and the *end-to-end* latency quantiles (queueing + RPC + shard
        service), which per-shard snapshots cannot see.
        """
        fleet = merge_metrics(self._fan_out("metrics"))
        uptime = time.monotonic() - self._started
        served = self.counters["served"].value
        return {
            "uptime_s": uptime,
            "throughput_rps": served / uptime if uptime > 0 else 0.0,
            "queue_depth": self.queue_depth,
            "router": {
                "counters": self._counter_values(),
                "latency": self.latency.snapshot(),
                "shards": {
                    str(shard_id): handle.snapshot()
                    for shard_id, handle in sorted(self._handles.items())
                },
            },
            **fleet,
        }

    def slo_snapshot(self) -> Dict[str, object]:
        """Fleet SLO view: the router's burn + every shard's, rolled up
        by :func:`merge_slo`."""
        return merge_slo(super().slo_snapshot(), self._fan_out("slo"))

    def profile_snapshot(self, limit: Optional[int] = 50) -> Dict[str, object]:
        """Fleet profile view: the router's span-derived hotspots plus
        every reachable shard's ``profile_snapshot()`` (collapsed stacks
        when that shard runs with ``profiling=True``)."""
        return merge_profile(
            super().profile_snapshot(limit),
            self._fan_out("profile", limit=limit),
        )

    def events_snapshot(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Fleet event log: router-side events plus every reachable
        shard's, each stamped with its ``source``."""
        return merge_events(
            super().events_snapshot(), self._fan_out("events", timeout_s=5.0),
            kind=kind, limit=limit,
        )

    def health_snapshot(self) -> Dict[str, object]:
        """The gateway's ``/v1/healthz`` body when fronting a cluster."""
        return merge_health(
            self._fan_out("health", timeout_s=5.0), self.slo.states(),
            accepting=self._accepting, queue_depth=self.queue_depth,
        )


# ----------------------------------------------------------------------
# Fleet merges: shard id -> the shard's view (``None`` when unreachable)
# in, one fleet view out.  Pure, so tests feed them hand-built views.
# ----------------------------------------------------------------------

_ShardViews = Mapping[str, Optional[Dict[str, object]]]


def _or_unreachable(views: _ShardViews) -> Dict[str, object]:
    return {shard_id: {"status": "unreachable"} if view is None else view
            for shard_id, view in views.items()}


def _surrogate_versions(views: _ShardViews) -> Dict[str, Dict[str, object]]:
    """algorithm -> shard id -> registry version, over reachable shards."""
    versions: Dict[str, Dict[str, object]] = {}
    for shard_id, view in views.items():
        for algorithm, info in (view or {}).get("surrogate_versions", {}).items():
            versions.setdefault(algorithm, {})[shard_id] = info.get("version")
    return versions


def merge_metrics(views: _ShardViews) -> Dict[str, object]:
    """The ``fleet`` and ``shards`` blocks of the router's metrics view:
    counters summed over reachable shards, and each algorithm's surrogate
    versions, ``converged`` when every reachable shard serves the same
    registry version (the propagation health signal)."""
    counters: Dict[str, int] = {}
    for view in views.values():
        for name, value in (view or {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
    return {
        "fleet": {
            "counters": counters,
            "surrogate_versions": {
                algorithm: {
                    "per_shard": per_shard,
                    "converged": len(set(per_shard.values())) <= 1,
                }
                for algorithm, per_shard in _surrogate_versions(views).items()
            },
        },
        "shards": _or_unreachable(views),
    }


def merge_health(
    views: _ShardViews,
    router_states: Mapping[str, str],
    accepting: bool,
    queue_depth: int,
) -> Dict[str, object]:
    """The fleet ``/v1/healthz`` body: ``draining`` once the router stops
    admitting, else ``ok``/``degraded``/``down`` by how many shards
    answered; a shard whose SLOs burn is named in ``burning_shards``."""
    shards: Dict[str, object] = {}
    slo_states = list(router_states.values())
    burning: List[str] = []
    for shard_id, view in views.items():
        if view is None:
            shards[shard_id] = {"status": "unreachable"}
            continue
        entry = {key: view.get(key) for key in ("status", "queue_depth", "pid")}
        shard_slo = view.get("slo")
        if isinstance(shard_slo, dict):
            # A burning shard is annotated right where an operator
            # looks first, not just in the /v1/slo deep dive.
            entry["slo"] = shard_slo
            state = str(shard_slo.get("worst_state", "ok"))
            slo_states.append(state)
            if state != "ok":
                burning.append(shard_id)
        shards[shard_id] = entry
    live = sum(view is not None for view in views.values())
    if not accepting:
        status = "draining"
    elif live == len(views):
        status = "ok"
    else:
        status = "degraded" if live else "down"
    return {
        "status": status,
        "queue_depth": queue_depth,
        "shards_live": live,
        "shards_total": len(views),
        "shards": shards,
        "surrogate_versions": _surrogate_versions(views),
        "slo": {
            "worst_state": worst_state(slo_states),
            "router": dict(router_states),
            "burning_shards": burning,
        },
    }


def merge_slo(
    router_view: Mapping[str, object], views: _ShardViews
) -> Dict[str, object]:
    """The fleet ``/v1/slo`` body.  ``fleet.by_slo`` maps each objective
    to its worst state across router and shards and the per-shard states
    behind it; ``fleet.burning_shards`` names the shards whose own
    trackers are in ``warning``/``page`` — the attribution an operator
    needs *before* a burning shard dies."""
    by_slo: Dict[str, Dict[str, object]] = {
        str(entry["name"]): {"per_shard": {}, "router": entry["state"]}
        for entry in router_view["slos"]  # type: ignore[union-attr]
    }
    burning: List[str] = []
    states = [str(router_view["worst_state"])]
    for shard_id, view in views.items():
        if view is None:
            continue
        state = str(view.get("worst_state", "ok"))
        states.append(state)
        if state != "ok":
            burning.append(shard_id)
        for entry in view.get("slos", []):  # type: ignore[union-attr]
            per = by_slo.setdefault(str(entry.get("name")), {"per_shard": {}})
            per["per_shard"][shard_id] = entry.get("state")  # type: ignore[index]
    for entry in by_slo.values():
        entry["worst_state"] = worst_state(
            [str(entry.get("router", "ok"))]
            + [str(state) for state in entry["per_shard"].values()]  # type: ignore[union-attr]
        )
    return {
        "router": router_view,
        "shards": _or_unreachable(views),
        "fleet": {
            "by_slo": {name: by_slo[name] for name in sorted(by_slo)},
            "burning_shards": burning,
        },
        "worst_state": worst_state(states),
    }


def merge_profile(
    router_view: Mapping[str, object], views: _ShardViews
) -> Dict[str, object]:
    """The fleet ``/v1/profile`` body: the router's hotspots, every
    shard's view, ``enabled`` when any of them profiles."""
    return {
        "enabled": any(bool((view or {}).get("enabled"))
                       for view in [router_view, *views.values()]),
        "hotspots": router_view["hotspots"],
        "shards": _or_unreachable(views),
    }


def merge_events(
    router_events: Sequence[Dict[str, object]],
    views: Mapping[str, Optional[Sequence[Dict[str, object]]]],
    kind: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, object]]:
    """The fleet event log: the router's events, then each reachable
    shard's, each stamped with its ``source``, filtered to ``kind`` and
    cut to the newest ``limit`` (the event log's own rules).  Events stay
    grouped by source: per-process monotonic timestamps don't interleave."""
    sources = [("router", router_events)] + [
        (f"shard-{shard_id}", events or []) for shard_id, events in views.items()
    ]
    merged = [dict(event, source=source)
              for source, events in sources for event in events
              if kind is None or event.get("kind") == kind]
    if limit is not None and limit >= 0:
        merged = merged[len(merged) - min(limit, len(merged)):]
    return merged


def start_cluster(
    num_shards: int, config: Optional[ClusterConfig] = None, **overrides
) -> ClusterRouter:
    """Convenience: build a :class:`ClusterConfig`, start the fleet.

    ``start_cluster(4, serve=ServeConfig(max_batch=16))`` spawns four shards
    and returns the started router (use as a context manager to get
    drain-on-exit).
    """
    base = config or ClusterConfig()
    router = ClusterRouter(replace(base, num_shards=num_shards, **overrides))
    return router.start()


__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "NoLiveShards",
    "ShardHandle",
    "merge_events",
    "merge_health",
    "merge_metrics",
    "merge_profile",
    "merge_slo",
    "start_cluster",
]
