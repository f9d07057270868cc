"""Serving entry point: ``python -m repro.serve`` runs the HTTP gateway
in front of a :class:`MappingServer` and drains it on SIGTERM/SIGINT."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine.engine import EngineConfig, MappingEngine
from repro.engine.registry import resolve_searcher
from repro.serve.http import install_signal_drain, start_gateway
from repro.serve.server import MappingServer, ServeConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="HTTP serving gateway for the mapping engine.",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logs")
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
