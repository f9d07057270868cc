"""Serving drain/health surface: begin_drain, healthz versions, SIGTERM.

Covers the serving-layer contracts the cluster rides on: non-blocking
drain (shards answer health checks while finishing in-flight work),
surrogate registry versions surfaced through ``health_snapshot``/
``/v1/healthz``/``metrics_snapshot``, ``SO_REUSEADDR`` rebinds, and the
signal-driven graceful shutdown of the serving entry point.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.core import MindMappings, MindMappingsConfig, TrainingConfig
from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.serve.http import Gateway, install_signal_drain, start_gateway
from repro.serve.server import MappingServer, ServeConfig, ServerClosed
from repro.workloads import make_conv1d

REPO_ROOT = Path(__file__).resolve().parent.parent
PROBLEM = make_conv1d("drain_health", w=24, r=3)


def _engine() -> MappingEngine:
    return MappingEngine(small_accelerator(), EngineConfig())


def _training_engine() -> MappingEngine:
    """An engine whose lazy Phase-1 training is test-sized."""
    return MappingEngine(small_accelerator(), EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=200,
            training=TrainingConfig(hidden_layers=(8, 8), epochs=1),
        ),
        train_seed=0,
        training_problems={
            "conv1d": (
                make_conv1d("dh_train_a", w=8, r=2),
                make_conv1d("dh_train_b", w=12, r=3),
            )
        },
    ))


class TestBeginDrain:
    def test_begin_drain_is_non_blocking_and_serves_inflight(self):
        server = MappingServer(_engine(), ServeConfig(max_batch=4,
                                                      max_wait_s=0.01))
        future = server.submit(MappingRequest(
            PROBLEM, searcher="random", iterations=30, seed=0
        ))
        server.begin_drain()  # returns immediately, work still in flight
        assert not server.accepting
        with pytest.raises(ServerClosed):
            server.submit(MappingRequest(
                PROBLEM, searcher="random", iterations=10, seed=1
            ))
        # The admitted request still completes.
        assert future.result(timeout=60).n_evaluations >= 1
        assert server.shutdown(timeout=30)

    def test_begin_drain_idempotent(self):
        server = MappingServer(_engine(), ServeConfig())
        server.begin_drain()
        server.begin_drain()
        assert not server.accepting
        assert server.shutdown(timeout=10)

    def test_health_reports_draining(self):
        server = MappingServer(_engine(), ServeConfig())
        assert server.health_snapshot()["status"] == "ok"
        server.begin_drain()
        assert server.health_snapshot()["status"] == "draining"
        server.shutdown(timeout=10)


class TestSurrogateVersionReporting:
    def test_engine_versions_track_installs(self):
        engine = _training_engine()
        assert engine.surrogate_versions() == {}  # nothing loaded yet
        engine.map(MappingRequest(
            PROBLEM, searcher="random", iterations=10, seed=0
        ))
        # Oracle-driven traffic loads no surrogate: still empty.
        assert "conv1d" not in engine.surrogate_versions()

        pipeline = engine.pipeline_for("conv1d")  # lazy Phase-1 train
        versions = engine.surrogate_versions()
        assert versions["conv1d"]["version"] is None  # not from a registry
        assert versions["conv1d"]["fingerprint"] == (
            engine.accelerator.fingerprint()
        )

        engine.install_pipeline(
            "conv1d",
            MindMappings(pipeline.surrogate.clone(), engine.accelerator),
            source="registry:v3",
            version=3,
        )
        assert engine.surrogate_versions()["conv1d"] == {
            "version": 3,
            "fingerprint": engine.accelerator.fingerprint(),
            "source": "registry:v3",
        }
        # Installing without a version clears the registry association.
        engine.install_pipeline(
            "conv1d",
            MindMappings(pipeline.surrogate.clone(), engine.accelerator),
            source="manual",
        )
        assert engine.surrogate_versions()["conv1d"]["version"] is None

    def test_healthz_and_metrics_carry_versions(self):
        engine = _training_engine()
        pipeline = engine.pipeline_for("conv1d")
        engine.install_pipeline(
            "conv1d",
            MindMappings(pipeline.surrogate.clone(), engine.accelerator),
            source="registry:v7",
            version=7,
        )
        server = MappingServer(engine, ServeConfig())
        try:
            health = server.health_snapshot()
            assert health["surrogate_versions"]["conv1d"]["version"] == 7
            metrics = server.metrics_snapshot()
            assert metrics["surrogate_versions"]["conv1d"]["version"] == 7

            gateway = start_gateway(server)
            try:
                with urllib.request.urlopen(
                    f"{gateway.address}/v1/healthz", timeout=10
                ) as reply:
                    payload = json.loads(reply.read())
                assert payload["status"] == "ok"
                assert payload["surrogate_versions"]["conv1d"]["version"] == 7
            finally:
                gateway.shutdown()
                gateway.server_close()
        finally:
            server.shutdown(timeout=10)


class TestPortReuse:
    def test_gateway_rebinds_same_port_immediately(self):
        """SO_REUSEADDR: a restarted gateway must not die on EADDRINUSE
        while the previous incarnation's sockets sit in TIME_WAIT."""
        server = MappingServer(_engine(), ServeConfig())
        try:
            first = start_gateway(server)
            port = first.server_address[1]
            # Create a real connection so TIME_WAIT state exists.
            with urllib.request.urlopen(
                f"{first.address}/v1/healthz", timeout=10
            ) as reply:
                assert json.loads(reply.read())["status"] == "ok"
            first.shutdown()
            first.server_close()  # release the listener; TIME_WAIT remains
            second = Gateway(server, host="127.0.0.1", port=port)
            try:
                assert second.server_address[1] == port
            finally:
                second.server_close()
        finally:
            server.shutdown(timeout=10)


class TestSignalDrain:
    def test_install_signal_drain_sets_event(self):
        previous = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            stop = install_signal_drain()
            assert not stop.is_set()
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop.wait(timeout=10)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def test_custom_signal_set(self):
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            stop = install_signal_drain(signals=(signal.SIGUSR1,))
            os.kill(os.getpid(), signal.SIGUSR1)
            assert stop.wait(timeout=10)
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_serve_entry_point_sigterm_graceful_exit(self):
        """``python -m repro.serve`` exits 0 on SIGTERM after draining —
        the supervisor-restart contract (no dropped in-flight work, no
        dirty exit codes)."""
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{existing}" if existing else src
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on" in banner, f"unexpected banner: {banner!r}"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, f"exit {proc.returncode}:\n{out}"
            assert "draining" in out
        finally:
            if proc.poll() is None:
                proc.kill()
