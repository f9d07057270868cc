"""End-to-end cluster tests: real shard processes behind the router.

The module-scoped 2-shard cluster amortizes process spawn across the
read-only tests; lifecycle tests (failover, SLO attribution, drain,
overload) build their own small fleets.  The slow-marked propagation test is the PR's
acceptance bar: a surrogate gate-passed by ONE shard's online learner is
hot-swapped into EVERY shard through the shared registry, no restarts.
"""

import json
import time
import urllib.request

import pytest
from test_obs_propagation import _well_nested

from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.core import MindMappingsConfig, TrainingConfig
from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import (
    EngineConfig,
    MappingEngine,
    MappingRequest,
    MappingResponse,
)
from repro.obs.slo import SLOSpec
from repro.serve.codec import request_to_dict
from repro.serve.http import start_gateway
from repro.serve.server import ServeConfig, ServerClosed, ServerOverloaded
from repro.workloads import make_conv1d

PROBLEMS = [make_conv1d(f"cluster_{w}", w=w, r=5) for w in (16, 24, 32, 48)]


def _requests(iterations=40, seeds=(0, 1)):
    return [
        MappingRequest(
            problem, searcher=searcher, iterations=iterations, seed=seed,
            tag=f"{problem.name}/{searcher}/{seed}",
        )
        for problem in PROBLEMS
        for searcher in ("random", "annealing")
        for seed in seeds
    ]


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read())


def _config(**overrides) -> ClusterConfig:
    defaults = dict(
        num_shards=2,
        accelerator=small_accelerator(),
        engine=EngineConfig(),
        serve=ServeConfig(max_batch=8, max_wait_s=0.01),
        health_interval_s=0.2,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture(scope="module")
def cluster():
    router = ClusterRouter(_config()).start()
    yield router
    router.shutdown(timeout=30)


@pytest.fixture(scope="module")
def solo():
    return MappingEngine(small_accelerator(), EngineConfig())


class TestRouting:
    def test_responses_bit_identical_to_solo(self, cluster, solo):
        requests = _requests()
        futures = [cluster.submit(request) for request in requests]
        for request, future in zip(requests, futures):
            response = future.result(timeout=120)
            reference = solo.map(request)
            assert response.tag == request.tag
            assert response.mapping == reference.mapping
            assert response.stats.edp == reference.stats.edp
            assert response.norm_edp == reference.norm_edp

    def test_problem_locality(self, cluster):
        """Every request for one problem routes to the same shard, and the
        catalog spreads across both shards."""
        owners = {}
        for request in _requests(seeds=(0, 1, 2, 3)):
            owner = cluster.shard_for(request)
            assert owners.setdefault(request.problem.name, owner) == owner
        assert set(owners.values()) == {0, 1}

    def test_unknown_searcher_rejected_at_the_door(self, cluster):
        with pytest.raises(KeyError):
            cluster.submit(MappingRequest(
                PROBLEMS[0], searcher="nope", iterations=10, seed=0
            ))
        # Wire-unsafe searcher config refused before dispatch, like serve.
        with pytest.raises(TypeError):
            cluster.submit(MappingRequest(
                PROBLEMS[0], searcher="random", iterations=10, seed=0,
                searcher_config={"callback": lambda: None},
            ))


class TestFleetViews:
    def test_metrics_aggregation(self, cluster, solo):
        cluster.map(MappingRequest(
            PROBLEMS[0], searcher="random", iterations=20, seed=50,
        ), timeout=120)
        snapshot = cluster.metrics_snapshot()
        assert set(snapshot["shards"]) == {"0", "1"}
        router_counters = snapshot["router"]["counters"]
        assert router_counters["served"] >= 1
        assert router_counters["served"] <= snapshot["fleet"]["counters"]["served"]
        assert snapshot["router"]["latency"]["count"] >= 1
        for shard in snapshot["shards"].values():
            assert shard["pid"] > 0
            assert "surrogate_versions" in shard
        assert "surrogate_versions" in snapshot["fleet"]

    def test_health_snapshot(self, cluster):
        health = cluster.health_snapshot()
        assert health["status"] == "ok"
        assert health["shards_live"] == 2
        assert health["shards_total"] == 2
        assert set(health["shards"]) == {"0", "1"}
        for shard in health["shards"].values():
            assert shard["status"] == "ok"
        assert "surrogate_versions" in health

    def test_gateway_fronts_router(self, cluster, solo):
        gateway = start_gateway(cluster)
        try:
            health = _get(f"{gateway.address}/v1/healthz")
            assert health["status"] == "ok"
            assert health["shards_live"] == 2

            request = MappingRequest(
                PROBLEMS[2], searcher="random", iterations=30, seed=77,
                tag="http",
            )
            body = json.dumps(
                {"request": request_to_dict(request)}
            ).encode("utf-8")
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"{gateway.address}/v1/map", data=body,
                    headers={"Content-Type": "application/json"},
                ),
                timeout=120,
            ) as reply:
                served = MappingResponse.from_dict(
                    json.loads(reply.read())["response"]
                )
            assert served.mapping == solo.map(request).mapping
            metrics = _get(f"{gateway.address}/v1/metrics")
            assert metrics["router"]["counters"]["served"] >= 1
        finally:
            gateway.shutdown()
            gateway.server_close()

    def test_routed_trace_spans_router_and_shard(self, cluster):
        """One merged tree holds the router's and the shard's spans, two
        pids, nested cluster.request -> shard.rpc -> serve.request ->
        search -> megabatch.kernel."""
        response = cluster.map(MappingRequest(
            PROBLEMS[1], searcher="random", iterations=40, seed=61,
        ), timeout=120)
        assert {"router_overhead_s", "kernel_s"} <= set(response.stages)
        trace = cluster.trace_snapshot(response.trace_id)
        assert _well_nested(trace)
        [tree] = trace["tree"]
        assert tree["span"]["name"] == "cluster.request"
        assert len({span["pid"] for span in trace["spans"]}) == 2
        by_id = {span["span_id"]: span for span in trace["spans"]}
        span = next(s for s in trace["spans"] if s["name"] == "megabatch.kernel")
        ancestry = []
        while span is not None:
            ancestry.append(span["name"])
            span = by_id.get(span["parent_id"])
        path = ["cluster.request", "shard.rpc", "serve.request", "search",
                "megabatch.kernel"]
        assert [name for name in reversed(ancestry) if name in path] == path


class TestLifecycle:
    def test_failover_and_respawn(self):
        """SIGKILL one shard: its keys fail over bit-identical, the monitor
        respawns it with the same shard id on a fresh process."""
        router = ClusterRouter(_config(health_interval_s=0.1)).start()
        try:
            request = MappingRequest(
                PROBLEMS[0], searcher="random", iterations=30, seed=5,
                tag="failover",
            )
            reference = MappingEngine(
                small_accelerator(), EngineConfig()
            ).map(request)
            victim = router._handles[router.shard_for(request)]
            victim_pid = victim.pid
            victim.process.kill()
            victim.process.join(timeout=10)

            response = router.map(request, timeout=120)
            assert response.mapping == reference.mapping
            assert router.counters["failovers"].value >= 1

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if victim.live and victim.pid != victim_pid:
                    break
                time.sleep(0.05)
            assert victim.live and victim.pid != victim_pid, "no respawn"
            assert router.counters["respawns"].value >= 1
            assert router.map(request, timeout=120).mapping == reference.mapping
        finally:
            router.shutdown(timeout=30)

    def test_slo_burn_attributed_to_the_busy_shard(self):
        """Every shard runs under a 100 ns latency objective; traffic to
        one problem burns its owner's budget.  The fleet /v1/slo view and
        /v1/healthz name exactly that shard, the idle one stays ok, and
        the fleet event log holds the transition."""
        burn = SLOSpec(
            name="shard_latency", objective=0.9, threshold_s=1e-7,
            window_s=60.0, fast_window_s=1.0, slow_window_s=10.0,
            warning_burn=1.5, page_burn=5.0, clear_evals=5,
        )
        router = ClusterRouter(_config(serve=ServeConfig(
            max_batch=8, max_wait_s=0.02, slos=(burn,), sample_interval_s=0.2,
        ))).start()
        gateway = start_gateway(router)
        try:
            requests = [
                MappingRequest(PROBLEMS[1], searcher="random", iterations=20,
                               seed=seed)
                for seed in range(30)
            ]
            target = str(router.shard_for(requests[0]))
            for request in requests:
                router.map(request, timeout=120)
                slo = _get(f"{gateway.address}/v1/slo")
                if target in slo["fleet"]["burning_shards"]:
                    break
            assert slo["fleet"]["burning_shards"] == [target]
            per_shard = slo["fleet"]["by_slo"]["shard_latency"]["per_shard"]
            assert per_shard.pop(target) in ("warning", "page")
            assert set(per_shard.values()) == {"ok"}
            assert slo["worst_state"] != "ok"
            health = _get(f"{gateway.address}/v1/healthz")
            assert health["slo"]["burning_shards"] == [target]
            kinds = {event["kind"] for event in router.events_snapshot()}
            assert kinds & {"slo_warning", "slo_page"}
        finally:
            gateway.shutdown()
            gateway.server_close()
            router.shutdown(timeout=30)

    def test_drain_refuses_new_work(self):
        router = ClusterRouter(_config()).start()
        assert router.accepting
        assert router.shutdown(timeout=60)
        assert not router.accepting
        with pytest.raises(ServerClosed):
            router.submit(MappingRequest(
                PROBLEMS[0], searcher="random", iterations=10, seed=0
            ))

    def test_router_backpressure(self):
        """The router's own in-flight bound rejects with ServerOverloaded
        (the gateway's 429) before shards are even asked."""
        router = ClusterRouter(_config(max_inflight=2)).start()
        try:
            overloaded = 0
            futures = []
            for seed in range(10):
                try:
                    futures.append(router.submit(MappingRequest(
                        PROBLEMS[1], searcher="random", iterations=60,
                        seed=seed,
                    )))
                except ServerOverloaded as exc:
                    assert exc.retry_after_s > 0
                    overloaded += 1
            assert overloaded >= 1, "in-flight bound never tripped"
            assert router.counters["rejected"].value == overloaded
            # Every attempt counts as submitted — rejected included — so
            # the availability SLO's bad/total stays meaningful under
            # overload (a full outage must read 100% bad, not 0/0).
            assert router.counters["submitted"].value == 10
            for future in futures:
                future.result(timeout=120)
        finally:
            router.shutdown(timeout=30)


@pytest.mark.slow
def test_surrogate_propagates_fleet_wide_without_restart(tmp_path):
    """The PR's acceptance bar: traffic for one problem lands on its owner
    shard, whose online learner gate-passes and publishes a surrogate to
    the shared registry; the OTHER shard's watcher must hot-swap it in —
    same version everywhere, no process restarted."""
    from repro.learn.gate import GateConfig
    from repro.learn.lifecycle import LearnConfig
    from repro.learn.replay import ReplayConfig
    from repro.learn.trainer import OnlineTrainerConfig

    target = make_conv1d("cluster_learn_target", w=48, r=5)
    engine_config = EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=300,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=2),
        ),
        train_seed=0,
        training_problems={
            "conv1d": (
                make_conv1d("cluster_learn_a", w=8, r=2),
                make_conv1d("cluster_learn_b", w=12, r=3),
            )
        },
    )
    learn_config = LearnConfig(
        replay=ReplayConfig(
            capacity_per_problem=256,
            holdout_capacity_per_problem=96,
            holdout_every=4,
        ),
        trainer=OnlineTrainerConfig(steps=250, batch_size=64),
        gate=GateConfig(min_samples=24),
        min_new_samples=128,
        poll_interval_s=0.05,
    )
    router = ClusterRouter(ClusterConfig(
        num_shards=2,
        accelerator=small_accelerator(),
        engine=engine_config,
        serve=ServeConfig(max_batch=8, max_wait_s=0.01),
        learn=learn_config,
        registry_dir=tmp_path,
        watch_interval_s=0.1,
    )).start()
    try:
        probe = MappingRequest(target, searcher="random", iterations=10, seed=0)
        owner = router.shard_for(probe)
        other = 1 - owner

        deadline = time.monotonic() + 300
        per_shard = {}
        round_index = 0
        while time.monotonic() < deadline:
            futures = [
                router.submit(MappingRequest(
                    target, searcher=searcher, iterations=60,
                    seed=1000 * round_index + 10 * offset
                    + (5 if searcher == "annealing" else 0),
                ))
                for searcher in ("random", "annealing")
                for offset in range(3)
            ]
            for future in futures:
                future.result(timeout=120)
            round_index += 1

            snapshot = router.metrics_snapshot()
            versions = snapshot["fleet"]["surrogate_versions"].get("conv1d")
            if versions is None:
                continue
            per_shard = versions["per_shard"]
            if (
                per_shard.get(str(owner)) is not None
                and per_shard.get(str(other)) is not None
                and versions["converged"]
            ):
                break
        else:
            pytest.fail(
                f"surrogate never propagated fleet-wide after "
                f"{round_index} traffic rounds: {per_shard}"
            )

        # Both shards serve the same registry version; the non-owner got
        # it from the watcher (its metrics say so), not from training.
        assert per_shard[str(owner)] == per_shard[str(other)] >= 1
        other_shard = router.metrics_snapshot()["shards"][str(other)]
        watcher_stats = other_shard.get("registry_watcher")
        assert watcher_stats is not None
        assert watcher_stats["adopted"] >= 1
        assert watcher_stats["adopted_versions"].get("conv1d") >= 1
        # No shard was restarted for the swap.
        assert router.counters["respawns"].value == 0
    finally:
        router.shutdown(timeout=60)
