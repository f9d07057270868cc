#!/usr/bin/env python3
"""Sharded cluster demo: 4 worker processes, Zipf traffic, fleet metrics.

Drives ``repro.cluster`` the way a deployment would:

1. start a ``ClusterRouter`` over 4 shard processes (each one a full
   engine + micro-batching server on its own core, reached over socket
   RPC),
2. fire a Zipf-weighted mix of Table 1 CNN layers and BERT-base GEMMs —
   the router consistent-hashes each request by problem fingerprint, so
   every problem's traffic lands on one shard and that shard's caches
   stay hot,
3. print where each problem routed and the aggregated fleet metrics
   (per-shard served counts, router failovers/respawns, end-to-end
   latency quantiles),
4. serve one request over real HTTP through the same stdlib gateway the
   single-process server uses — the router is a drop-in backend.

Oracle-driven searchers only, so there is no Phase 1 training and the
demo runs in seconds.  Usage::

    python examples/cluster_demo.py
"""

import json
import urllib.request

import numpy as np

from repro import MappingRequest, problem_by_name
from repro.cluster import ClusterConfig, ClusterRouter
from repro.harness import format_table
from repro.serve import ServeConfig, request_to_dict, start_gateway

PROBLEMS = (
    "ResNet_Conv4", "AlexNet_Conv2", "ResNet_Conv3", "AlexNet_Conv4",
    "BERT_QKV", "BERT_AttnOut", "BERT_FFN1", "BERT_FFN2",
)
SEARCHERS = ("random", "annealing")
TOTAL = 96


def zipf_mix(rng: np.random.Generator) -> list:
    """Popular problems dominate, the way real serving traffic skews."""
    catalog = [
        MappingRequest(problem_by_name(name), searcher=searcher,
                       iterations=120, seed=seed,
                       tag=f"{name}/{searcher}/{seed}")
        for name in PROBLEMS
        for searcher in SEARCHERS
        for seed in range(2)
    ]
    weights = 1.0 / np.arange(1, len(catalog) + 1, dtype=float)
    weights /= weights.sum()
    return [catalog[i] for i in rng.choice(len(catalog), TOTAL, p=weights)]


def main() -> None:
    config = ClusterConfig(
        num_shards=4,
        serve=ServeConfig(max_batch=16, max_wait_s=0.005),
    )
    with ClusterRouter(config) as router:
        print(f"4 shards up (pids "
              f"{[handle.pid for handle in router._handles.values()]})")

        # Routing: the consistent-hash key is the problem fingerprint, so
        # ownership is decided before any request is sent.
        rows = [
            (name, str(router.shard_for(
                MappingRequest(problem_by_name(name), searcher="random")
            )))
            for name in PROBLEMS
        ]
        print(format_table(("problem", "owner shard"), rows))

        requests = zipf_mix(np.random.default_rng(0))
        futures = [router.submit(request) for request in requests]
        responses = [future.result(timeout=300) for future in futures]
        print(f"\nserved {len(responses)} Zipf-mix requests; "
              f"best norm EDP {min(r.norm_edp for r in responses):.2f}x")

        snapshot = router.metrics_snapshot()
        per_shard = {
            shard_id: shard["counters"]["served"]
            for shard_id, shard in snapshot["shards"].items()
        }
        latency = snapshot["router"]["latency"]
        print(f"fleet: served per shard {per_shard} | "
              f"failovers={snapshot['router']['counters']['failovers']} "
              f"respawns={snapshot['router']['counters']['respawns']}")
        print(f"end-to-end latency: p50={latency['p50_ms']:.1f}ms "
              f"p95={latency['p95_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms")

        # The same HTTP gateway fronts a cluster unchanged.
        gateway = start_gateway(router)
        print(f"\nHTTP gateway on {gateway.address} (backed by 4 shards)")
        wire_request = MappingRequest(
            problem_by_name("VGG_Conv2"), searcher="random",
            iterations=100, seed=1, tag="over-http",
        )
        body = json.dumps({"request": request_to_dict(wire_request)}).encode()
        http_request = urllib.request.Request(
            f"{gateway.address}/v1/map", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(http_request, timeout=120) as reply:
            payload = json.loads(reply.read())
        print(f"POST /v1/map -> {reply.status}, "
              f"norm EDP {payload['response']['norm_edp']:.2f}x "
              f"(tag {payload['response']['tag']!r})")
        health = json.loads(urllib.request.urlopen(
            f"{gateway.address}/v1/healthz", timeout=10
        ).read())
        print(f"GET /v1/healthz -> {health['status']}, "
              f"{health['shards_live']}/{health['shards_total']} shards live")
        gateway.shutdown()
        gateway.server_close()


if __name__ == "__main__":
    main()
