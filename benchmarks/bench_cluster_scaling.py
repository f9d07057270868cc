"""Cluster throughput scaling: N shard processes vs the solo serving stack.

The serving stack is GIL-bound — search, surrogate inference, and oracle
evaluation all share one interpreter — so the single-process system tops
out near one core however it schedules its batches.  The cluster
escapes sideways: N shard *processes*, consistent-hash routing keeping
every shard's caches as hot as the solo system's.

This benchmark drives identical open-loop Poisson/Zipf traffic (the
bench_serving methodology) through clusters of 1, 2, and 4 shards and
reports sustained throughput, router-side latency quantiles, and the
speedup trend.  Acceptance (the ISSUE 6 bar): **>= 2.5x at 4 shards vs
1 shard** on a >= 4-core machine (the nightly runner), scaled down
proportionally when fewer cores exist — on this container's
{cores}-core budget, 4 processes cannot beat 1 by more than scheduling
noise, and asserting otherwise would test the host, not the code.
Responses are spot-checked bit-identical to solo ``engine.map``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from conftest import add_report, write_bench_json

from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.costmodel.accelerator import default_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.harness import format_table
from repro.serve import ServeConfig
from repro.workloads import problem_by_name

#: A wider catalog than bench_serving: scaling needs enough distinct
#: problems that a 4-shard ring keeps every shard busy.
PROBLEMS = (
    "ResNet_Conv4", "AlexNet_Conv2", "ResNet_Conv3", "AlexNet_Conv4",
    "BERT_AttnOut", "BERT_QKV", "BERT_FFN1", "BERT_FFN2",
)
SEARCHERS = ("random", "annealing", "genetic")
SEEDS_PER_TYPE = 2
ITERATIONS = 96
TOTAL_ARRIVALS = 192
CLIENTS = 32
#: Offered-load overload factor vs measured 1-shard capacity: the open
#: loop must saturate even the largest fleet for the measurement to be
#: the fleet's capacity, not the generator's.
OVERLOAD = 8.0
SHARD_COUNTS = (1, 2, 4)


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def scaling_floor(cores: int, shards: int = 4) -> float:
    """The asserted speedup at ``shards`` shards, given ``cores`` cores.

    Full bar (2.5x at 4 shards = 62.5% parallel efficiency) when the
    machine has at least ``shards`` cores; proportionally less when the
    fleet is core-starved.  On one core there is no parallelism to win
    and extra processes only add scheduling + RPC overhead, so the floor
    degrades to an *overhead bound*: the fleet must keep at least half
    the solo throughput.
    """
    if cores < 2:
        return 0.5
    return min(2.5, 0.625 * min(shards, cores))


def _catalog() -> List[MappingRequest]:
    return [
        MappingRequest(
            problem_by_name(name), searcher=searcher, iterations=ITERATIONS,
            seed=seed, tag=f"{name}/{searcher}/{seed}",
        )
        for name in PROBLEMS
        for searcher in SEARCHERS
        for seed in range(SEEDS_PER_TYPE)
    ]


def _zipf_stream(rng: np.random.Generator, total: int) -> List[MappingRequest]:
    catalog = _catalog()
    ranks = np.arange(1, len(catalog) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    indices = rng.choice(len(catalog), size=total, p=weights)
    return [catalog[i] for i in indices]


def _cluster_throughput(
    num_shards: int, requests: Sequence[MappingRequest], rate_rps: float
) -> Tuple[float, Dict[str, object]]:
    """Open-loop Poisson clients against an ``num_shards``-shard cluster."""
    router = ClusterRouter(ClusterConfig(
        num_shards=num_shards,
        accelerator=default_accelerator(),
        engine=EngineConfig(),
        serve=ServeConfig(
            max_batch=32,
            max_wait_s=0.004,
            max_queue=len(requests) + CLIENTS,
        ),
        max_inflight=len(requests) + CLIENTS,  # measure saturation, not 429s
    ))
    router.start()
    try:
        per_client = [list(requests[i::CLIENTS]) for i in range(CLIENTS)]
        futures: List[Future] = []
        futures_lock = threading.Lock()
        started = time.perf_counter()

        def client(client_index: int) -> None:
            rng = np.random.default_rng(20_000 + client_index)
            next_at = time.perf_counter()
            for request in per_client[client_index]:
                next_at += rng.exponential(CLIENTS / rate_rps)
                delay = next_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                future = router.submit(request)
                with futures_lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        responses = [future.result(timeout=600) for future in futures]
        elapsed = time.perf_counter() - started
        assert len(responses) == len(requests)

        # Spot-check: routed responses are bit-identical to solo engine.map.
        solo = MappingEngine(default_accelerator(), EngineConfig())
        for response in responses[:: max(len(responses) // 6, 1)]:
            request = next(r for r in requests if r.tag == response.tag)
            reference = solo.map(request)
            assert response.mapping == reference.mapping, (
                f"{num_shards}-shard cluster changed a result for "
                f"{response.tag}"
            )
            assert response.stats.edp == reference.stats.edp

        snapshot = router.metrics_snapshot()
    finally:
        router.shutdown(timeout=60)
    return len(requests) / elapsed, snapshot


@pytest.mark.slow
def test_cluster_throughput_scales_with_shards(benchmark):
    cores = usable_cores()
    rng = np.random.default_rng(0)

    # Calibrate offered load from a short 1-shard probe.
    probe_rps, _ = _cluster_throughput(1, _zipf_stream(rng, 24), rate_rps=1e6)
    rate = probe_rps * OVERLOAD * max(SHARD_COUNTS)

    mix = _zipf_stream(rng, TOTAL_ARRIVALS)
    results: Dict[int, Tuple[float, Dict[str, object]]] = {}
    for num_shards in SHARD_COUNTS:
        results[num_shards] = _cluster_throughput(num_shards, mix, rate)

    base_rps = results[SHARD_COUNTS[0]][0]
    ratios = {n: rps / base_rps for n, (rps, _) in results.items()}

    def once():
        return _cluster_throughput(2, _zipf_stream(rng, 48), rate)

    benchmark.pedantic(once, rounds=1, iterations=1)

    rows = []
    for num_shards in SHARD_COUNTS:
        rps, snapshot = results[num_shards]
        latency = snapshot["router"]["latency"]
        rows.append((
            f"{num_shards}", f"{rps:.1f}", f"{ratios[num_shards]:.2f}x",
            f"{latency['p50_ms']:.0f}", f"{latency['p99_ms']:.0f}",
        ))
    floor = scaling_floor(cores)
    add_report(
        f"Cluster scaling: {CLIENTS} open-loop Poisson clients, "
        f"{TOTAL_ARRIVALS} Zipf arrivals, {cores} usable cores "
        f"(asserted floor at 4 shards: {floor:.2f}x)",
        format_table(
            ("shards", "served req/s", "speedup vs 1", "p50 ms", "p99 ms"),
            rows,
        ),
    )

    write_bench_json("cluster_scaling", {
        "usable_cores": cores,
        "clients": CLIENTS,
        "arrivals": TOTAL_ARRIVALS,
        "iterations_per_request": ITERATIONS,
        "offered_rate_rps": rate,
        "asserted_floor_at_4_shards": floor,
        "configs": {
            str(num_shards): {
                "served_rps": results[num_shards][0],
                "speedup_vs_1_shard": ratios[num_shards],
                "latency_ms": results[num_shards][1]["router"]["latency"],
                "fleet_counters": results[num_shards][1]["fleet"]["counters"],
            }
            for num_shards in SHARD_COUNTS
        },
    })

    # Each doubling should help when cores exist to back it (10% noise
    # margin); core-starved, the floor is the overhead bound.
    assert ratios[2] >= scaling_floor(cores, shards=2) * 0.9, (
        f"2 shards sustained only {ratios[2]:.2f}x of 1 shard "
        f"({cores} cores)"
    )
    # The headline bar: >= 2.5x at 4 shards on a >= 4-core machine,
    # proportionally scaled when the fleet is core-starved.
    assert ratios[4] >= floor, (
        f"4 shards sustained only {ratios[4]:.2f}x of 1 shard; "
        f"floor is {floor:.2f}x on {cores} usable cores"
    )
