"""One worker shard: a full serving stack in its own OS process.

A shard is the single-process system PRs 1–5 built — ``MappingEngine`` +
``MappingServer`` (+ optionally an ``OnlineLearner`` and a
``RegistryWatcher``) — wrapped in the cluster RPC protocol and run as a
separate process so N shards use N cores instead of sharing one GIL.
Because the router consistent-hashes by problem fingerprint, each shard's
response cache, memoized oracle, surrogate pipelines, and replay
reservoirs stay as hot as the solo system's.

:func:`run_shard` is the process entry point (spawn-safe: top level,
picklable :class:`ShardSpec` argument).  Startup handshake: the child
binds an ephemeral port and reports ``("ready", port, pid)`` on the pipe
the router passed in (or ``("fatal", traceback)``), so the router never
guesses ports and a respawned shard can land anywhere.  ``SIGTERM`` (or a
``shutdown`` RPC) triggers the graceful sequence — stop admission, serve
everything in flight, then exit 0 — so supervisor restarts and router
respawns never drop requests.

RPC operations (all framed by :mod:`repro.cluster.rpc`):

============  ========================================================
``ping``      liveness probe (the router's health check)
``map``       one ``MappingRequest`` through the shard's ``MappingServer``
``metrics``   the shard's full ``metrics_snapshot()``
``health``    ``health_snapshot()``: drain state, surrogate versions, SLO state
``events``    the shard's structured event log (swaps, 429s, gate verdicts)
``slo``       the shard's ``slo_snapshot()``: burn rates, budgets, alerts
``profile``   the shard's ``profile_snapshot()``: stacks + span hotspots
``shutdown``  acknowledge, then drain and exit the process
============  ========================================================

The five view ops share one reply layout, ``{"ok": True, "shard_id":
id, <op>: view}``; the ``metrics`` and ``health`` views also carry the
shard's ``shard_id`` and ``pid``.
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.costmodel.accelerator import Accelerator
from repro.engine.engine import EngineConfig, MappingEngine
from repro.serve.batcher import Priority
from repro.serve.codec import request_from_dict, trace_from_dict
from repro.serve.http import install_signal_drain
from repro.serve.server import (
    MappingServer,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
)
from repro.cluster.rpc import RpcServer


@dataclass
class ShardSpec:
    """Everything a shard process needs, in picklable form.

    Crosses the ``multiprocessing`` spawn boundary, so every field is
    plain data: configs are dataclasses of scalars, ``accelerator`` is the
    (picklable) accelerator description itself — ``None`` means
    :func:`~repro.costmodel.accelerator.default_accelerator`.  ``learn``
    non-``None`` runs an :class:`~repro.learn.OnlineLearner` on the shard;
    ``registry_dir`` points every shard at one shared directory, which is
    what makes fleet propagation work (publishes land there, watchers poll
    it).
    """

    shard_id: int
    host: str = "127.0.0.1"
    accelerator: Optional[Accelerator] = None
    engine: EngineConfig = field(default_factory=EngineConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    learn: Optional[object] = None  # LearnConfig; imported lazily
    registry_dir: Optional[Path] = None
    watch_registry: bool = True
    watch_interval_s: float = 0.25
    #: Per-request wait inside the shard before the RPC reply times out.
    request_timeout_s: float = 300.0
    #: Graceful-exit budget for in-flight work on SIGTERM/shutdown.
    drain_timeout_s: float = 30.0


_PRIORITIES = {"high": Priority.HIGH, "normal": Priority.NORMAL}

#: The read-only view ops: op -> (service, payload) -> the shard's view.
_VIEWS: Dict[str, Callable[["ShardService", Dict], object]] = {
    "metrics": lambda shard, _: shard._stamped(shard.server.metrics_snapshot()),
    "health": lambda shard, _: shard._stamped(shard.server.health_snapshot()),
    "events": lambda shard, _: shard.server.events_snapshot(),
    "slo": lambda shard, _: shard.server.slo_snapshot(),
    "profile": lambda shard, payload: shard.server.profile_snapshot(
        limit=payload.get("limit")
    ),
}


class ShardService:
    """The RPC handler around one shard's serving stack."""

    def __init__(self, spec: ShardSpec) -> None:
        import threading

        self.spec = spec
        self._stop = threading.Event()  # replaced by bind_stop in a process
        self.engine = MappingEngine(spec.accelerator, spec.engine)
        self.registry = None
        self.learner = None
        self.watcher = None
        if spec.registry_dir is not None:
            from repro.learn.registry import ModelRegistry

            self.registry = ModelRegistry(spec.registry_dir)
        if spec.learn is not None:
            from repro.learn.lifecycle import OnlineLearner

            self.learner = OnlineLearner(
                self.engine, spec.learn, registry=self.registry
            ).start()
        if self.registry is not None and spec.watch_registry:
            from repro.cluster.watcher import RegistryWatcher

            self.watcher = RegistryWatcher(
                self.engine,
                self.registry,
                interval_s=spec.watch_interval_s,
            ).start()
        self.server = MappingServer(
            self.engine, spec.serve, learner=self.learner
        )
        if self.watcher is not None:
            self.server.attach_watcher(self.watcher)

    # ------------------------------------------------------------------

    def handle(self, payload: Dict) -> Dict:
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "shard_id": self.spec.shard_id}
        if op == "map":
            return self._handle_map(payload)
        if op in _VIEWS:
            return {"ok": True, "shard_id": self.spec.shard_id,
                    op: _VIEWS[op](self, payload)}
        if op == "shutdown":
            # Acknowledge first; the run loop drains and exits after us.
            self._stop.set()
            return {"ok": True, "status": "stopping"}
        return {"ok": False, "kind": "bad_request", "error": f"unknown op {op!r}"}

    def _stamped(self, view: Dict[str, object]) -> Dict[str, object]:
        """``view`` with this shard's id and process id added."""
        return dict(view, shard_id=self.spec.shard_id, pid=os.getpid())

    def _handle_map(self, payload: Dict) -> Dict:
        try:
            request = request_from_dict(payload["request"])
            priority = _PRIORITIES[
                str(payload.get("priority", "normal")).lower()
            ]
            include_trace = bool(payload.get("include_trace", False))
            trace_parent = trace_from_dict(payload.get("trace"))
        except (KeyError, TypeError, ValueError) as exc:
            return {
                "ok": False,
                "kind": "bad_request",
                "error": f"bad map payload: {exc}",
            }
        try:
            future = self.server.submit(
                request, priority=priority, trace_parent=trace_parent
            )
        except ServerOverloaded as exc:
            return {
                "ok": False,
                "kind": "overloaded",
                "error": str(exc),
                "retry_after_s": exc.retry_after_s,
            }
        except ServerClosed as exc:
            return {"ok": False, "kind": "closed", "error": str(exc)}
        except (KeyError, ValueError) as exc:
            return {
                "ok": False,
                "kind": "bad_request",
                "error": f"bad request: {exc}",
            }
        try:
            response = future.result(timeout=self.spec.request_timeout_s)
        except Exception as exc:  # noqa: BLE001 — search errors cross as errors
            return {
                "ok": False,
                "kind": "error",
                "error": f"{exc.__class__.__name__}: {exc}",
            }
        reply = {
            "ok": True,
            "response": response.to_dict(include_trace=include_trace),
        }
        if response.trace_id:
            # Ship the shard-side span tree home with the reply; the
            # router merges it into its own record of the same trace.
            reply["spans"] = self.server.tracer.export_spans(response.trace_id)
        return reply

    # ------------------------------------------------------------------

    def bind_stop(self, stop) -> None:
        """Give the ``shutdown`` op access to the run loop's stop event."""
        self._stop = stop

    def close(self) -> None:
        """Graceful teardown: drain serving, stop learning and watching."""
        self.server.begin_drain()
        self.server.shutdown(timeout=self.spec.drain_timeout_s)
        if self.learner is not None:
            self.learner.stop()
        if self.watcher is not None:
            self.watcher.stop()


def run_shard(spec: ShardSpec, ready) -> None:
    """Process entry point: build the stack, report readiness, serve.

    ``ready`` is the router's end of a one-shot pipe: ``("ready", port,
    pid)`` on success, ``("fatal", traceback)`` if the stack can't come
    up.  Runs until SIGTERM/SIGINT or a ``shutdown`` RPC, then drains and
    exits 0.
    """
    stop = install_signal_drain()  # must run on the main thread
    try:
        service = ShardService(spec)
        service.bind_stop(stop)
        rpc = RpcServer(service.handle, host=spec.host, port=0)
    except BaseException:
        try:
            ready.send(("fatal", traceback.format_exc()))
            ready.close()
        except OSError:
            pass
        raise
    ready.send(("ready", rpc.port, os.getpid()))
    ready.close()
    rpc.start()
    stop.wait()
    # Graceful exit: serve everything admitted, refuse the rest (the
    # router fails those over to a live shard), then leave.
    service.close()
    rpc.stop()
    sys.exit(0)


__all__ = ["ShardService", "ShardSpec", "run_shard"]
