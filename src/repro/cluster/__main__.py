"""Cluster entry point: ``python -m repro.cluster`` serves HTTP in front
of a shard fleet and drains it on SIGTERM/SIGINT."""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.serve.http import install_signal_drain, start_gateway
from repro.serve.server import ServeConfig
from repro.cluster.router import ClusterConfig, ClusterRouter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded multi-process serving cluster for the "
                    "mapping engine.",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logs")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of worker shard processes")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="HTTP gateway port (shards use ephemeral ports)")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--max-queue", type=int, default=256)
    parser.add_argument("--learn", action="store_true",
                        help="run an online surrogate learner on every "
                             "shard; gate-passed surrogates propagate "
                             "fleet-wide through the shared registry")
    parser.add_argument("--registry-dir", type=Path, default=None,
                        help="shared model-registry directory (default with "
                             "--learn: a fresh temporary directory)")
    args = parser.parse_args(argv)

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
