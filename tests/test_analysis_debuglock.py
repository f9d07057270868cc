"""DebugLock runtime recorder: cycle detection and static cross-check."""

from __future__ import annotations

import threading
from pathlib import Path

from repro.analysis import LockGraph, build_lock_graph
from repro.analysis.debuglock import (
    DebugLock,
    LockTracer,
    crosscheck,
    static_label_map,
    trace_locks,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_debuglock_is_a_working_lock():
    tracer = LockTracer()
    lock = DebugLock(tracer, "L")
    with lock:
        assert lock.locked()
        assert not lock.acquire(blocking=False)
    assert not lock.locked()
    assert lock.acquire(blocking=False)
    lock.release()


def test_condition_over_debuglock_wait_notify():
    tracer = LockTracer()
    lock = DebugLock(tracer, "L")
    cond = threading.Condition(lock)
    hits = []

    def waiter():
        with cond:
            while not hits:
                cond.wait(timeout=5.0)
            hits.append("woke")

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    with cond:
        hits.append("signal")
        cond.notify()
    thread.join(timeout=5.0)
    assert hits == ["signal", "woke"]


def test_tracer_records_nested_acquisition_order():
    tracer = LockTracer()
    outer = DebugLock(tracer, "A")
    inner = DebugLock(tracer, "B")
    with outer:
        with inner:
            pass
    assert ("A", "B") in tracer.edges()
    assert ("B", "A") not in tracer.edges()
    assert tracer.graph().find_cycles() == []


def test_tracer_detects_opposite_orders_as_cycle():
    tracer = LockTracer()
    a = DebugLock(tracer, "A")
    b = DebugLock(tracer, "B")

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    # Run serially on two threads: the *orders* conflict even though the
    # schedule never deadlocks — exactly what the recorder must catch.
    for fn in (forward, backward):
        t = threading.Thread(target=fn, daemon=True)
        t.start()
        t.join(timeout=5.0)
    cycles = tracer.graph().find_cycles()
    assert cycles == [["A", "B"]]


def test_trace_locks_patches_and_restores():
    original = threading.Lock
    with trace_locks() as tracer:
        lock = threading.Lock()
        assert isinstance(lock, DebugLock)
        with lock:
            pass
    assert threading.Lock is original
    assert isinstance(threading.Lock(), original().__class__)
    assert tracer.edges() == set()


def test_crosscheck_flags_runtime_order_contradicting_static():
    static = LockGraph()
    static.add("X._a", "X._b", "mod.py:10")
    tracer = LockTracer()
    tracer.record_acquire("X._b")
    tracer.record_acquire("X._a")  # runtime order b -> a
    conflicts = crosscheck(static, tracer)
    assert len(conflicts) == 1
    assert "X._a" in conflicts[0] and "X._b" in conflicts[0]


def test_crosscheck_ignores_unlabeled_creation_sites():
    static = LockGraph()
    static.add("X._a", "X._b", "mod.py:10")
    tracer = LockTracer()
    tracer.record_acquire("X._b")
    tracer.record_acquire("stdlib/queue.py:42")  # no static identity
    assert crosscheck(static, tracer) == []


def test_static_label_map_knows_real_lock_sites():
    labels = set(static_label_map([SRC], root=REPO_ROOT).values())
    assert "MappingServer._lock" in labels
    assert "RpcClient._lock" in labels


def test_hammer_traffic_agrees_with_static_graph():
    """Drive real serving traffic under the tracer; the observed orders
    unioned with the static graph must stay acyclic."""
    from repro.costmodel.accelerator import small_accelerator
    from repro.engine import EngineConfig, MappingEngine, MappingRequest
    from repro.serve import MappingServer, ServeConfig
    from repro.workloads import make_conv1d

    tracer = LockTracer(static_label_map([SRC], root=REPO_ROOT), root=REPO_ROOT)
    with trace_locks(tracer):
        engine = MappingEngine(small_accelerator(), EngineConfig())
        problem = make_conv1d("hammer", w=16, r=3)
        with MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.02)
        ) as server:
            futures = [
                server.submit(
                    MappingRequest(
                        problem, searcher="random", iterations=10, seed=seed
                    )
                )
                for seed in range(8)
            ]
            for future in futures:
                future.result(timeout=60.0)
    assert tracer.edges(), "tracer saw no lock activity — patch not applied?"
    conflicts = crosscheck(build_lock_graph([SRC], root=REPO_ROOT), tracer)
    assert conflicts == []
