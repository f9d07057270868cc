"""Cluster entry points: ``python -m repro.cluster`` serves HTTP in front
of a shard fleet, ``python -m repro.cluster --selftest`` is the CI smoke
gate.

The selftest brings up a real 2-shard cluster (separate OS processes,
socket RPC) in a few seconds and checks the contract end to end: routed
responses bit-identical to a solo ``engine.map``, per-problem routing
locality (every problem's traffic lands on exactly one shard), fleet
metrics aggregation, failover + respawn after a shard is SIGKILLed
mid-fleet, the HTTP gateway fronting the router, and graceful drain.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import (
    EngineConfig,
    MappingEngine,
    MappingRequest,
    MappingResponse,
)
from repro.serve.codec import request_to_dict
from repro.serve.http import install_signal_drain, start_gateway
from repro.serve.server import ServeConfig, ServerClosed
from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.utils.smoke import check as _check, get_json as _get, post_json as _post
from repro.workloads.conv1d import make_conv1d


def selftest(verbose: bool = True) -> int:
    started = time.perf_counter()

    def say(message: str) -> None:
        if verbose:
            print(f"[cluster-selftest] {message}")

    config = ClusterConfig(
        num_shards=2,
        accelerator=small_accelerator(),
        engine=EngineConfig(),
        serve=ServeConfig(max_batch=8, max_wait_s=0.02),
        health_interval_s=0.2,
    )
    solo = MappingEngine(small_accelerator(), EngineConfig())

    # Enough distinct problems that both shards certainly own some.
    problems = [
        make_conv1d(f"cluster_selftest_{w}", w=w, r=5) for w in (16, 24, 32, 48)
    ]
    requests = [
        MappingRequest(
            problem, searcher=searcher, iterations=40, seed=seed,
            tag=f"{problem.name}/{searcher}/{seed}",
        )
        for problem in problems
        for searcher in ("random", "annealing")
        for seed in range(2)
    ]

    router = ClusterRouter(config)
    spawn_started = time.perf_counter()
    router.start()
    say(f"2 shards up in {time.perf_counter() - spawn_started:.1f}s "
        f"(pids {[h.pid for h in router._handles.values()]})")
    try:
        # --- routing locality: one problem -> one shard, both shards used.
        owners = {
            request.problem.name: router.shard_for(request)
            for request in requests
        }
        _check(len(set(owners.values())) == 2,
               f"expected both shards to own problems, got {owners}")

        # --- bit-identical responses vs solo engine.map.
        futures = [router.submit(request) for request in requests]
        for request, future in zip(requests, futures):
            response = future.result(timeout=120)
            reference = solo.map(request)
            _check(response.tag == request.tag, "tag not echoed")
            _check(response.mapping == reference.mapping,
                   f"{request.tag}: routed mapping != solo mapping")
            _check(response.stats.edp == reference.stats.edp,
                   f"{request.tag}: routed EDP != solo EDP")
        say(f"{len(requests)} routed requests bit-identical to solo engine.map")

        # --- fleet metrics: per-shard snapshots + aggregated counters.
        snapshot = router.metrics_snapshot()
        _check(set(snapshot["shards"]) == {"0", "1"},
               f"fleet snapshot missing shards: {list(snapshot['shards'])}")
        fleet_served = snapshot["fleet"]["counters"].get("served", 0)
        _check(fleet_served >= len(requests),
               f"fleet served {fleet_served} < {len(requests)}")
        _check(snapshot["router"]["counters"]["served"] == len(requests),
               "router served counter mismatch")
        per_shard_served = {
            shard_id: shard["counters"]["served"]
            for shard_id, shard in snapshot["shards"].items()
        }
        _check(all(count > 0 for count in per_shard_served.values()),
               f"a shard served nothing: {per_shard_served}")
        say(f"fleet metrics: served per shard {per_shard_served}")

        # --- failover: SIGKILL one shard, its keys must fail over live.
        victim_id = owners[problems[0].name]
        victim = router._handles[victim_id]
        victim_pid = victim.pid
        victim.process.kill()
        victim.process.join(timeout=10)
        retry = MappingRequest(problems[0], searcher="random", iterations=40,
                               seed=99, tag="failover")
        response = router.map(retry, timeout=120)
        reference = solo.map(retry)
        _check(response.mapping == reference.mapping,
               "failover response != solo mapping")
        _check(router.counters["failovers"].value >= 1,
               "failover not counted")
        say(f"shard {victim_id} killed; its traffic failed over bit-identical")

        # --- respawn: the monitor must bring shard {victim_id} back.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.live and victim.pid != victim_pid:
                break
            time.sleep(0.1)
        _check(victim.live and victim.pid != victim_pid,
               f"shard {victim_id} not respawned within 60s")
        _check(router.counters["respawns"].value >= 1, "respawn not counted")
        back = router.map(retry, timeout=120)
        _check(back.mapping == reference.mapping,
               "post-respawn response != solo mapping")
        say(f"shard {victim_id} respawned (pid {victim_pid} -> {victim.pid})")

        # --- health: fleet view healthy again, surrogate versions present.
        health = router.health_snapshot()
        _check(health["status"] == "ok", f"health says {health['status']}")
        _check(health["shards_live"] == 2, f"live={health['shards_live']}")
        _check("surrogate_versions" in health, "no surrogate_versions in health")

        # --- the HTTP gateway fronts the router unchanged.
        gateway = start_gateway(router)
        try:
            _check(_get(f"{gateway.address}/v1/healthz")["status"] == "ok",
                   "gateway healthz not ok")
            http_request = MappingRequest(
                problems[1], searcher="random", iterations=40, seed=7,
                tag="via-gateway",
            )
            served = MappingResponse.from_dict(_post(
                f"{gateway.address}/v1/map",
                {"request": request_to_dict(http_request)},
            )["response"])
            _check(served.mapping == solo.map(http_request).mapping,
                   "gateway-fronted response != solo mapping")
            say("HTTP gateway fronts the router; response bit-identical")
        finally:
            gateway.shutdown()
            gateway.server_close()
    except BaseException:
        router.shutdown(timeout=10)
        raise

    # --- graceful drain: shutdown returns True, then admission refuses.
    _check(router.shutdown(timeout=60), "drain timed out")
    try:
        router.submit(requests[0])
    except ServerClosed:
        pass
    else:
        _check(False, "submit after shutdown did not raise ServerClosed")
    say(f"drained and shut down; PASS in {time.perf_counter() - started:.1f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded multi-process serving cluster for the "
                    "mapping engine.",
    )
    parser.add_argument("--selftest", action="store_true",
                        help="run the 2-shard end-to-end smoke test (CI gate)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of worker shard processes")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="HTTP gateway port (shards use ephemeral ports)")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--max-queue", type=int, default=256)
    parser.add_argument("--workers", type=int, default=2,
                        help="batch workers per shard")
    parser.add_argument("--learn", action="store_true",
                        help="run an online surrogate learner on every "
                             "shard; gate-passed surrogates propagate "
                             "fleet-wide through the shared registry")
    parser.add_argument("--registry-dir", type=Path, default=None,
                        help="shared model-registry directory (default with "
                             "--learn: a fresh temporary directory)")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest(verbose=not args.quiet)

    registry_dir = args.registry_dir
    learn = None
    if args.learn:
        from repro.learn.lifecycle import LearnConfig

        learn = LearnConfig()
        if registry_dir is None:
            registry_dir = Path(tempfile.mkdtemp(prefix="repro-registry-"))
            print(f"--learn without --registry-dir: using {registry_dir}")

    router = ClusterRouter(ClusterConfig(
        num_shards=args.shards,
        host=args.host,
        serve=ServeConfig(
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1e3,
            max_queue=args.max_queue,
            workers=args.workers,
        ),
        learn=learn,
        registry_dir=registry_dir,
    ))
    # Handlers go in before the ready banner: once a supervisor reads the
    # banner it may signal.
    stop = install_signal_drain()
    router.start()
    gateway = start_gateway(
        router, host=args.host, port=args.port, verbose=not args.quiet
    )
    print(f"cluster of {args.shards} shards serving on {gateway.address} "
          f"(POST /v1/map, GET /v1/metrics, GET /v1/healthz)", flush=True)
    stop.wait()
    print("draining...")
    gateway.shutdown()
    gateway.server_close()
    router.shutdown(timeout=60)
    return 0


if __name__ == "__main__":
    sys.exit(main())
