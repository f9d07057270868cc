"""Serving entry points: ``python -m repro.serve`` runs the HTTP gateway,
``python -m repro.serve --selftest`` is the CI smoke gate.

The selftest exercises the serving stack end to end over real HTTP in a
few seconds — no surrogate training (the load mix uses oracle-driven
searchers): gateway up, requests served over the wire, responses decoded
through the shared codec and checked bit-equal against solo
``engine.map``, duplicate collapsing observed, metrics snapshot populated
(batch-size histogram + latency quantiles), graceful drain.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.engine.registry import resolve_searcher
from repro.serve.codec import request_to_dict
from repro.serve.http import install_signal_drain, start_gateway
from repro.serve.server import MappingServer, ServeConfig
from repro.utils.smoke import check as _check, get_json as _get, post_json as _post
from repro.workloads.conv1d import make_conv1d


def selftest(verbose: bool = True) -> int:
    started = time.perf_counter()

    def say(message: str) -> None:
        if verbose:
            print(f"[serve-selftest] {message}")

    engine = MappingEngine(small_accelerator(), EngineConfig())
    problem = make_conv1d("serve_selftest", w=32, r=5)
    server = MappingServer(engine, ServeConfig(max_batch=8, max_wait_s=0.02))
    gateway = start_gateway(server)
    say(f"gateway listening at {gateway.address}")

    try:
        health = _get(f"{gateway.address}/v1/healthz")
        _check(health["status"] == "ok", f"health says {health}")

        # Concurrent HTTP clients over two searchers; repeats for collapsing.
        requests = [
            MappingRequest(
                problem, searcher=searcher, iterations=40, seed=seed,
                tag=f"{searcher}/{seed}/{copy}",
            )
            for searcher in ("random", "annealing")
            for seed in range(3)
            for copy in range(2)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(pool.map(
                lambda r: _post(
                    f"{gateway.address}/v1/map", {"request": request_to_dict(r)}
                ),
                requests,
            ))
        from repro.engine.engine import MappingResponse

        for request, reply in zip(requests, replies):
            response = MappingResponse.from_dict(reply["response"])
            _check(response.tag == request.tag, "tag not echoed")
            solo = engine.map(request)
            _check(response.mapping == solo.mapping,
                   f"{request.tag}: served mapping != solo mapping")
            _check(response.stats.edp == solo.stats.edp,
                   f"{request.tag}: served EDP != solo EDP")
        say(f"{len(requests)} HTTP requests bit-identical to solo engine.map")

        snapshot = _get(f"{gateway.address}/v1/metrics")
        _check(snapshot["counters"]["served"] >= len(requests),
               "served counter too low")
        _check(snapshot["counters"]["collapsed"] >= 1,
               "duplicate requests were not collapsed")
        _check(snapshot["batch_size"]["count"] >= 1, "no batches recorded")
        latency = snapshot["latency"]
        for field in ("p50_ms", "p95_ms", "p99_ms"):
            _check(latency[field] is not None and latency[field] >= 0,
                   f"latency {field} missing")
        say(
            "metrics: "
            f"served={snapshot['counters']['served']} "
            f"collapsed={snapshot['counters']['collapsed']} "
            f"batches={snapshot['batch_size']['count']} "
            f"p50={latency['p50_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms"
        )
    finally:
        gateway.shutdown()
        gateway.server_close()
        drained = server.shutdown(timeout=30.0)
        _check(drained, "drain timed out")
    say(f"PASS in {time.perf_counter() - started:.1f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="HTTP serving gateway for the mapping engine.",
    )
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end HTTP smoke test (CI gate)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--max-queue", type=int, default=256)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--artifact-dir", type=Path, default=None,
                        help="surrogate artifact cache directory")
    parser.add_argument("--learn", action="store_true",
                        help="run the online surrogate lifecycle: replay "
                             "served traffic, fine-tune in the background, "
                             "hot-swap gate-validated surrogates")
    parser.add_argument("--registry-dir", type=Path, default=None,
                        help="model-registry directory for --learn "
                             "(versioned artifacts + rollback)")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest(verbose=not args.quiet)

    engine = MappingEngine(
        config=EngineConfig(artifact_dir=args.artifact_dir)
    )
    learner = None
    if args.learn:
        from repro.learn.lifecycle import OnlineLearner
        from repro.learn.registry import ModelRegistry

        registry = (
            ModelRegistry(args.registry_dir) if args.registry_dir else None
        )
        learner = OnlineLearner(engine, registry=registry).start()
    server = MappingServer(
        engine,
        ServeConfig(
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1e3,
            max_queue=args.max_queue,
            workers=args.workers,
        ),
        learner=learner,
    )
    # SIGTERM (supervisor restart) and SIGINT (^C) both land here: stop
    # accepting, serve everything already admitted, then exit 0 — a shard
    # restart never drops in-flight requests.  Handlers go in BEFORE the
    # ready banner: once a supervisor reads the banner it may signal.
    stop = install_signal_drain()
    gateway = start_gateway(
        server, host=args.host, port=args.port, verbose=not args.quiet
    )
    print(f"serving on {gateway.address}  (POST /v1/map, GET /v1/metrics; "
          f"searchers resolve via repro.engine, e.g. "
          f"{resolve_searcher('mm')!r} for 'mm')", flush=True)
    stop.wait()
    print("draining...")
    gateway.shutdown()
    gateway.server_close()
    server.shutdown(timeout=60.0)
    if learner is not None:
        learner.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
