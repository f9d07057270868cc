"""Observability entry point: ``python -m repro.obs --profile`` runs a
seeded workload under the sampling profiler and prints the top-k span
hotspots plus collapsed stacks (flamegraph-ready)."""

from __future__ import annotations

import argparse
import sys

from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.serve.server import MappingServer, ServeConfig
from repro.workloads.conv1d import make_conv1d


def run_profile(requests: int = 6, iterations: int = 300,
                top: int = 20) -> int:
    """``--profile``: run a seeded workload under the sampling profiler
    and print the span hotspot table + collapsed stacks."""
    engine = MappingEngine(small_accelerator(), EngineConfig())
    # Two problems so concurrent batches exercise the cross-problem
    # megabatch kernel, which is exactly the frame worth profiling.
    problems = (make_conv1d("profile_demo_a", w=32, r=5),
                make_conv1d("profile_demo_b", w=48, r=7))
    server = MappingServer(
        engine,
        ServeConfig(max_batch=8, max_wait_s=0.01,
                    profiling=True, profile_interval_s=0.002),
    )
    try:
        futures = [
            server.submit(MappingRequest(
                problems[seed % 2], searcher="random", iterations=iterations,
                seed=seed, tag=f"profile/{seed}",
            ))
            for seed in range(max(requests, 1))
        ]
        for future in futures:
            future.result(timeout=300)
        snapshot = server.profile_snapshot(limit=top)
    finally:
        server.shutdown(timeout=30.0)
    profiler = snapshot.get("profiler", {})
    print(f"# sampling profiler: {profiler.get('samples', 0)} samples, "
          f"{profiler.get('distinct_stacks', 0)} distinct stacks "
          f"(interval {profiler.get('interval_s', 0.0) * 1e3:.1f}ms)")
    print("#")
    print(f"# top {top} span hotspots by self time")
    print(f"# {'self_s':>10}  {'count':>6}  name (problem)")
    for row in snapshot.get("hotspots", []):
        suffix = f" ({row['problem']})" if row.get("problem") else ""
        print(f"  {row['self_s']:>10.4f}  {row['count']:>6}  "
              f"{row['name']}{suffix}")
    print("#")
    print("# collapsed stacks (flamegraph.pl-compatible)")
    for row in profiler.get("collapsed", []):
        print(f"{row['stack']} {row['count']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Sampling-profiler workload for the serving stack.",
    )
    parser.add_argument("--profile", action="store_true",
                        help="profile a seeded workload; print hotspot "
                             "tables + collapsed stacks")
    parser.add_argument("--requests", type=int, default=6,
                        help="--profile: number of requests to serve")
    parser.add_argument("--iterations", type=int, default=300,
                        help="--profile: search iterations per request")
    parser.add_argument("--top", type=int, default=20,
                        help="--profile: rows in the hotspot/stack tables")
    args = parser.parse_args(argv)
    if not args.profile:
        parser.print_help()
        return 2
    return run_profile(requests=args.requests,
                       iterations=args.iterations, top=args.top)


if __name__ == "__main__":
    sys.exit(main())
