"""End-to-end trace propagation: server, followers, failures, router.

These tests drive real engines through the serving stack (no fake clocks:
propagation is about *which* spans land in *whose* trace, not durations)
plus router failover paths on injected fake RPC pools — no processes.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import MindMappingsConfig, TrainingConfig
from repro.costmodel.accelerator import small_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.serve import MappingServer, ServeConfig
from repro.serve.codec import response_to_dict
from repro.workloads import make_conv1d

PROBLEM = make_conv1d("obs_prop", w=32, r=5)
PROBLEM_B = make_conv1d("obs_prop_b", w=48, r=3)


@pytest.fixture()
def engine():
    return MappingEngine(small_accelerator(), EngineConfig())


@pytest.fixture(scope="module")
def mm_engine():
    """A tiny surrogate, trained up front so traces time serving only."""
    engine = MappingEngine(small_accelerator(), EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=600, n_problems=2,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
        ),
        training_problems={"conv1d": (make_conv1d("obs_train_a", w=48, r=3),
                                      make_conv1d("obs_train_b", w=64, r=5))},
    ))
    engine.pipeline_for("conv1d")
    return engine


def _request(problem=PROBLEM, seed=0, tag="", searcher="random",
             iterations=20):
    return MappingRequest(
        problem, searcher=searcher, iterations=iterations, seed=seed, tag=tag
    )


def _span_names(snapshot):
    return [s["name"] for s in snapshot["spans"]]


def _well_nested(snapshot):
    """Every non-root span's parent exists; same-pid children sit inside
    their parent's interval."""
    spans = {s["span_id"]: s for s in snapshot["spans"]}
    for s in snapshot["spans"]:
        parent = s["parent_id"]
        if parent is None:
            continue
        assert parent in spans, f"orphan span {s['name']}"
        p = spans[parent]
        if p["pid"] == s["pid"]:
            assert s["start"] >= p["start"] - 1e-9
            if s["end"] is not None and p["end"] is not None:
                assert s["end"] <= p["end"] + 1e-9
    return True


def _assert_complete_trace(server, response):
    """The response's trace is sealed, well nested and its stage
    breakdown sums to (the bulk of) the root's wall time."""
    assert response.trace_id
    snap = server.trace_snapshot(response.trace_id)
    assert snap is not None
    names = _span_names(snap)
    assert names[0] == "serve.request"
    # Admission runs from enqueue until the serve loop takes the batch;
    # the batch starts there, so no wait span sits between the two.
    [admission] = [s for s in snap["spans"] if s["name"] == "admission"]
    assert admission["attrs"]["trigger"] in ("size", "priority", "deadline")
    assert admission["attrs"]["batch"] >= 1
    assert "batch.wait" not in names
    assert names.count("search") == 1
    assert "finalize" in names
    assert _well_nested(snap)
    # The sealed stage breakdown equals what the response carries.
    assert snap["stages"] == response.stages
    root = snap["spans"][0]
    wall = root["end"] - root["start"]
    total = sum(response.stages.values())
    assert total <= wall + 1e-6
    assert total >= 0.5 * wall  # breakdown accounts for the bulk


class TestServerTraces:
    def test_response_carries_a_complete_trace(self, engine):
        server = MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.005)
        )
        try:
            response = server.submit(_request(seed=1, tag="t")).result(
                timeout=30
            )
            _assert_complete_trace(server, response)
        finally:
            server.shutdown(timeout=10.0)

    def test_gradient_stages_sum_to_wall_latency(self, mm_engine):
        server = MappingServer(
            mm_engine, ServeConfig(max_batch=4, max_wait_s=0.005)
        )
        try:
            response = server.submit(
                _request(seed=1, tag="mm", searcher="gradient", iterations=40)
            ).result(timeout=60)
            _assert_complete_trace(server, response)
            assert response.stages["search_rounds_s"] > 0.0
        finally:
            server.shutdown(timeout=10.0)

    def test_untrained_surrogate_is_timed_in_prepare(self):
        """Training a surrogate on first use happens while the request is
        prepared; the ``prepare`` span times it, so the stages still sum
        to the wall time."""
        engine = MappingEngine(small_accelerator(), EngineConfig(
            mm_config=MindMappingsConfig(
                dataset_samples=600, n_problems=2,
                training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
            ),
            training_problems={"conv1d": (
                make_conv1d("obs_cold_a", w=48, r=3),
                make_conv1d("obs_cold_b", w=64, r=5),
            )},
        ))
        server = MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.005)
        )
        try:
            response = server.submit(
                _request(seed=2, tag="cold", searcher="gradient", iterations=20)
            ).result(timeout=120)
            _assert_complete_trace(server, response)
            assert response.stages["prepare_s"] > 0.0
            assert "prepare" in _span_names(server.trace_snapshot(response.trace_id))
        finally:
            server.shutdown(timeout=10.0)

    def test_span_count_does_not_grow_with_iterations(self, engine):
        # One ``search`` span per request, however many rounds it runs.
        server = MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.005)
        )
        try:
            counts = []
            for iterations in (8, 64):
                response = server.submit(_request(
                    seed=4, searcher="annealing", iterations=iterations
                )).result(timeout=30)
                names = _span_names(server.trace_snapshot(response.trace_id))
                counts.append(len(names) - names.count("megabatch.kernel"))
            assert counts[0] == counts[1]
        finally:
            server.shutdown(timeout=10.0)

    def test_cohort_rounds_and_kernel_spans_attributed(self, engine):
        # Two coalescible searches in one batch: each trace gets one
        # ``search`` span; the shared prewarm kernels nest under it in both.
        server = MappingServer(
            engine, ServeConfig(max_batch=8, max_wait_s=0.25)
        )
        try:
            futures = [
                server.submit(_request(problem, seed=7, tag=f"m{i}"))
                for i, problem in enumerate((PROBLEM, PROBLEM_B))
            ]
            responses = [f.result(timeout=30) for f in futures]
            for response in responses:
                snap = server.trace_snapshot(response.trace_id)
                assert _well_nested(snap)
                [search] = [
                    s for s in snap["spans"] if s["name"] == "search"
                ]
                assert search["attrs"]["members"] == 2
                kernels = [
                    s for s in snap["spans"]
                    if s["name"] == "megabatch.kernel"
                ]
                assert kernels
                assert all(
                    k["parent_id"] == search["span_id"] for k in kernels
                )
                assert response.stages.get("kernel_s", 0.0) > 0.0
                assert kernels[0]["attrs"]["lanes"] >= 2  # megabatched union
        finally:
            server.shutdown(timeout=10.0)

    def test_follower_records_admission_and_links_leader(self, engine):
        server = MappingServer(
            engine,
            ServeConfig(max_batch=8, max_wait_s=0.25, response_cache_size=0),
        )
        try:
            leader_future = server.submit(_request(seed=3, tag="leader"))
            follower_future = server.submit(_request(seed=3, tag="dup"))
            leader = leader_future.result(timeout=30)
            follower = follower_future.result(timeout=30)
            assert follower.tag == "dup"
            assert follower.trace_id
            assert follower.trace_id != leader.trace_id
            snap = server.trace_snapshot(follower.trace_id)
            names = _span_names(snap)
            # The follower's own trace is just its root + admission wait;
            # the leader's kernel/search spans are shared via the link.
            assert "admission" in names
            assert "search" not in names
            assert snap["links"] == [leader.trace_id]
            leader_names = [
                s["name"] for s in snap["linked_spans"][leader.trace_id]
            ]
            assert "finalize" in leader_names
            assert set(follower.stages) == {"admission_wait_s"}
        finally:
            server.shutdown(timeout=10.0)

    def test_failed_request_finishes_trace_with_error(self, engine):
        def exploding_runner(engine_, requests):
            raise RuntimeError("boom")

        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0),
            runner=exploding_runner,
        )
        try:
            future = server.submit(_request(seed=5, tag="doomed"))
            with pytest.raises(RuntimeError):
                future.result(timeout=30)
            # The trace is sealed, queryable, and carries the error class.
            [trace_id] = server.tracer.trace_ids()
            snap = server.trace_snapshot(trace_id)
            root = snap["spans"][0]
            assert root["end"] is not None
            assert root["attrs"]["error"] == "RuntimeError"
        finally:
            server.shutdown(timeout=10.0)

    def test_tracing_off_yields_no_trace(self, engine):
        server = MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.005, tracing=False)
        )
        try:
            response = server.submit(_request(seed=2)).result(timeout=30)
            assert response.trace_id == ""
            assert response.stages == {}
            assert server.tracer.trace_ids() == []
        finally:
            server.shutdown(timeout=10.0)

    def test_cache_hit_gets_its_own_trivial_trace(self, engine):
        server = MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.005)
        )
        try:
            first = server.submit(_request(seed=9, tag="a")).result(
                timeout=30
            )
            second = server.submit(_request(seed=9, tag="b")).result(
                timeout=30
            )
            assert second.trace_id
            assert second.trace_id != first.trace_id
            snap = server.trace_snapshot(second.trace_id)
            assert _span_names(snap)[0] == "serve.request"
            assert snap["spans"][0]["attrs"].get("cache_hit") is True
        finally:
            server.shutdown(timeout=10.0)


class _FakePool:
    """Stands in for a ConnectionPool; scripted reply or failure."""

    def __init__(self, reply=None, error=None):
        self.reply = reply
        self.error = error
        self.calls = []

    def call(self, payload, timeout_s=None):
        self.calls.append(payload)
        if self.error is not None:
            raise self.error
        return self.reply

    def close(self):
        pass


def _router_without_processes(num_shards=2):
    from repro.cluster import ClusterConfig, ClusterRouter

    config = ClusterConfig(
        num_shards=num_shards,
        accelerator=small_accelerator(),
    )
    return ClusterRouter(config)


def _ok_reply(engine, request, trace_payload):
    """A canned shard reply: a real response traced by a real server."""
    server = MappingServer(
        engine, ServeConfig(max_batch=1, max_wait_s=0.0)
    )
    try:
        trace_parent = (
            (trace_payload["trace_id"], trace_payload.get("parent_span", ""))
            if trace_payload
            else None
        )
        response = server.submit(
            request, trace_parent=trace_parent
        ).result(timeout=30)
        return {
            "ok": True,
            "response": response_to_dict(response),
            "spans": server.tracer.export_spans(response.trace_id),
        }
    finally:
        server.shutdown(timeout=10.0)


class TestRouterTraces:
    def test_failover_attempts_are_sibling_spans(self, engine):
        router = _router_without_processes(num_shards=2)
        try:
            request = _request(seed=11, tag="fo")
            primary = router.shard_for(request)
            backup = 1 - primary

            class _ServingPool(_FakePool):
                def call(self, payload, timeout_s=None):
                    self.calls.append(payload)
                    return _ok_reply(engine, request, payload.get("trace"))

            dead = _FakePool(error=ConnectionError("shard gone"))
            alive = _ServingPool()
            for shard_id, pool in ((primary, dead), (backup, alive)):
                handle = router._handles[shard_id]
                handle.pool = pool
                handle.live = True
            router._accepting = True
            response = router.submit(request).result(timeout=60)
            assert response.trace_id
            assert router.counters["failovers"].value == 1
            snap = router.trace_snapshot(response.trace_id)
            [tree] = snap["tree"]
            assert tree["span"]["name"] == "cluster.request"
            rpc_nodes = [
                c for c in tree["children"]
                if c["span"]["name"] == "shard.rpc"
            ]
            assert len(rpc_nodes) == 2  # failed + served, side by side
            by_attempt = sorted(
                rpc_nodes, key=lambda n: n["span"]["attrs"]["attempt"]
            )
            assert by_attempt[0]["span"]["attrs"]["shard"] == primary
            assert (
                by_attempt[0]["span"]["attrs"]["error"] == "ConnectionError"
            )
            assert by_attempt[1]["span"]["attrs"]["shard"] == backup
            # The shard's own spans merged in under the served attempt.
            child_names = [
                c["span"]["name"] for c in by_attempt[1]["children"]
            ]
            assert "serve.request" in child_names
            # Failover surfaced as an event too.
            kinds = [
                e["kind"] for e in router.events_snapshot(kind="failover")
            ]
            assert kinds == ["failover"]
        finally:
            router._accepting = False
            router._executor.shutdown(wait=False)

    def test_router_merges_shard_stages_plus_overhead(self, engine):
        router = _router_without_processes(num_shards=1)
        try:
            request = _request(seed=13, tag="merge")

            class _ServingPool(_FakePool):
                def call(self, payload, timeout_s=None):
                    self.calls.append(payload)
                    return _ok_reply(engine, request, payload.get("trace"))

            handle = router._handles[0]
            handle.pool = _ServingPool()
            handle.live = True
            router._accepting = True
            response = router.submit(request).result(timeout=60)
            assert "router_overhead_s" in response.stages
            assert response.stages["router_overhead_s"] >= 0.0
            assert "admission_wait_s" in response.stages
            snap = router.trace_snapshot(response.trace_id)
            assert _well_nested(snap)
            # The shard adopted the router's trace id end-to-end.
            pids = {s["pid"] for s in snap["spans"]}
            assert len(pids) == 1  # same process here, but one merged tree
            names = _span_names(snap)
            assert "cluster.request" in names
            assert "serve.request" in names
        finally:
            router._accepting = False
            router._executor.shutdown(wait=False)
