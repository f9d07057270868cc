"""One worker shard: a full serving stack in its own OS process.

A shard is the single-process system PRs 1–5 built — ``MappingEngine`` +
``MappingServer`` (+ optionally an ``OnlineLearner`` and a
``RegistryWatcher``) — wrapped in the cluster RPC protocol and run as a
separate process so N shards use N cores instead of sharing one GIL.
Because the router consistent-hashes by problem fingerprint, each shard's
response cache, memoized oracle, surrogate pipelines, and replay
reservoirs stay as hot as the solo system's.

:func:`run_shard` is the process entry point (spawn-safe: top level,
picklable arguments — the shard id and the router's
:class:`~repro.cluster.router.ClusterConfig`).  Startup handshake: the
child binds an ephemeral port and reports ``("ready", port, pid)`` on the
pipe the router passed in (or ``("fatal", traceback)``), so the router
never guesses ports and a respawned shard can land anywhere.  ``SIGTERM``
(or a ``shutdown`` RPC) triggers the graceful sequence — stop admission,
serve everything in flight, then exit 0 — so supervisor restarts and
router respawns never drop requests.

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
shard's ``shard_id`` and ``pid``.  A ``map`` that fails, and an unknown
op, reply with :func:`~repro.serve.server.failure_reply`: ``{"ok":
False, "kind", "error"}`` with a kind from
:data:`~repro.serve.server.FAILURE_KINDS` or ``error``.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from typing import TYPE_CHECKING, Callable, Dict

from repro.engine.engine import MappingEngine
from repro.serve.codec import BadRequest, map_call_from_dict
from repro.serve.http import install_signal_drain
from repro.serve.server import REQUEST_TIMEOUT_S, MappingServer, failure_reply
from repro.cluster.rpc import RpcServer

if TYPE_CHECKING:
    from repro.cluster.router import ClusterConfig

#: How long a stopping shard may take to serve what it admitted (the
#: router waits as long for the process to exit).
DRAIN_TIMEOUT_S = 30.0

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
    """The RPC handler around one shard's serving stack.

    Built from the router's :class:`~repro.cluster.router.ClusterConfig`:
    ``accelerator`` (``None`` means
    :func:`~repro.costmodel.accelerator.default_accelerator`), ``engine``
    and ``serve`` configure the stack; ``learn`` non-``None`` runs an
    :class:`~repro.learn.OnlineLearner`; a ``registry_dir`` shared by
    every shard adds a :class:`~repro.cluster.watcher.RegistryWatcher`
    polling it every ``watch_interval_s``, which is what makes fleet
    propagation work (publishes land there, watchers adopt them).
    """

    def __init__(self, shard_id: int, config: "ClusterConfig") -> None:
        self.shard_id = shard_id
        self._stop = threading.Event()  # replaced by bind_stop in a process
        self.engine = MappingEngine(config.accelerator, config.engine)
        self.registry = None
        self.learner = None
        self.watcher = None
        if config.registry_dir is not None:
            from repro.learn.registry import ModelRegistry

            self.registry = ModelRegistry(config.registry_dir)
        if config.learn is not None:
            from repro.learn.lifecycle import OnlineLearner

            self.learner = OnlineLearner(
                self.engine, config.learn, registry=self.registry
            ).start()
        if self.registry is not None:
            from repro.cluster.watcher import RegistryWatcher

            self.watcher = RegistryWatcher(
                self.engine,
                self.registry,
                interval_s=config.watch_interval_s,
            ).start()
        self.server = MappingServer(
            self.engine, config.serve, learner=self.learner
        )
        if self.watcher is not None:
            self.server.attach_watcher(self.watcher)

    # ------------------------------------------------------------------

    def handle(self, payload: Dict) -> Dict:
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "shard_id": self.shard_id}
        if op == "map":
            return self._handle_map(payload)
        if op in _VIEWS:
            return {"ok": True, "shard_id": self.shard_id,
                    op: _VIEWS[op](self, payload)}
        if op == "shutdown":
            # Acknowledge first; the run loop drains and exits after us.
            self._stop.set()
            return {"ok": True, "status": "stopping"}
        return failure_reply(BadRequest(f"unknown op {op!r}"))

    def _stamped(self, view: Dict[str, object]) -> Dict[str, object]:
        """``view`` with this shard's id and process id added."""
        return dict(view, shard_id=self.shard_id, pid=os.getpid())

    def _handle_map(self, payload: Dict) -> Dict:
        try:
            call = map_call_from_dict(payload)
            response = self.server.submit(
                call.request,
                priority=call.priority,
                trace_parent=call.trace_parent,
            ).result(timeout=REQUEST_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 — failures cross as their kind
            return failure_reply(exc)
        reply = {
            "ok": True,
            "response": response.to_dict(include_trace=call.include_trace),
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
        self.server.shutdown(timeout=DRAIN_TIMEOUT_S)
        if self.learner is not None:
            self.learner.stop()
        if self.watcher is not None:
            self.watcher.stop()


def run_shard(shard_id: int, config: "ClusterConfig", ready) -> None:
    """Process entry point: build the stack, report readiness, serve.

    ``ready`` is the router's end of a one-shot pipe: ``("ready", port,
    pid)`` on success, ``("fatal", traceback)`` if the stack can't come
    up.  Runs until SIGTERM/SIGINT or a ``shutdown`` RPC, then drains and
    exits 0.
    """
    stop = install_signal_drain()  # must run on the main thread
    try:
        service = ShardService(shard_id, config)
        service.bind_stop(stop)
        rpc = RpcServer(service.handle, host=config.host, port=0)
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


__all__ = ["DRAIN_TIMEOUT_S", "ShardService", "run_shard"]
