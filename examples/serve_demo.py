#!/usr/bin/env python3
"""End-to-end serving demo: in-process server, live metrics, HTTP gateway.

Drives the full ``repro.serve`` stack the way a deployment would:

1. build a ``MappingEngine`` and wrap it in a ``MappingServer`` (dynamic
   micro-batching + duplicate collapsing + one serve loop),
2. fire a burst of concurrent requests — Table 1 CNN layers and BERT-base
   GEMMs across three searchers, with duplicates to show collapsing and a
   high-priority request jumping the queue,
3. print the live metrics snapshot (throughput, batch-size histogram,
   p50/p95/p99 latency, cache counters),
4. serve one request over real HTTP through the stdlib gateway.

Oracle-driven searchers only, so there is no Phase 1 training and the demo
runs in seconds.  Usage::

    python examples/serve_demo.py
"""

import json
import urllib.request

from repro import MappingEngine, MappingRequest, problem_by_name
from repro.harness import format_table
from repro.serve import (
    MappingServer,
    Priority,
    ServeConfig,
    request_to_dict,
    start_gateway,
)

PROBLEMS = ("ResNet_Conv4", "AlexNet_Conv2", "BERT_QKV", "BERT_FFN1")
SEARCHERS = ("random", "annealing", "genetic")


def main() -> None:
    engine = MappingEngine()
    config = ServeConfig(max_batch=16, max_wait_s=0.005)
    with MappingServer(engine, config) as server:
        # A burst of traffic: every (problem, searcher) pair twice — the
        # second copy collapses onto the first — plus one urgent request.
        requests = [
            MappingRequest(problem_by_name(name), searcher=searcher,
                           iterations=200, seed=17, tag=f"{name}/{searcher}/{copy}")
            for name in PROBLEMS
            for searcher in SEARCHERS
            for copy in range(2)
        ]
        futures = [server.submit(request) for request in requests]
        urgent = server.submit(
            MappingRequest(problem_by_name("BERT_FFN2"), searcher="annealing",
                           iterations=200, seed=3, tag="urgent"),
            priority=Priority.HIGH,
        )
        responses = [future.result(timeout=300) for future in futures]
        responses.append(urgent.result(timeout=300))

        rows = [
            (response.tag, f"{response.norm_edp:.2f}x",
             f"{response.n_evaluations}")
            for response in responses[::2]
        ]
        print(format_table(("request", "norm EDP", "evals"), rows))

        snapshot = server.metrics_snapshot()
        latency = snapshot["latency"]
        print(f"\nthroughput: {snapshot['throughput_rps']:.1f} req/s | "
              f"served={snapshot['counters']['served']} "
              f"collapsed={snapshot['counters']['collapsed']} "
              f"batches={snapshot['counters']['batches']}")
        print(f"batch sizes: {snapshot['batch_size']['buckets']}")
        print(f"latency: p50={latency['p50_ms']:.1f}ms "
              f"p95={latency['p95_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms")
        print(f"oracle cache: {snapshot['oracle_cache']}")

        # The same server, over the wire.
        gateway = start_gateway(server)
        print(f"\nHTTP gateway on {gateway.address}")
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
        gateway.shutdown()
        gateway.server_close()


if __name__ == "__main__":
    main()
