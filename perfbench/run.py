#!/usr/bin/env python3
"""The serving benchmark: three closed-loop workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload hot_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (see ``catalog.json``) and
``--trace 1`` the per-layer ledger.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries machine-noise context (a fixed pure-Python
calibration loop's time), which is never a metric.  A run also writes
its full record, and in traced runs every span, under ``perfbench/out/``.

Requests go through the public serving API only —
``MappingServer.submit`` or ``ClusterRouter.submit`` — from a single
generator thread (``loop.py``).  Every run checks its responses: tags and
problems echo the requests, every normalized EDP is at least 1 (the
algorithmic lower bound holds), every response-cache hit equals the
response its key got during set-up, and a seeded sample is replayed
through a fresh solo ``MappingEngine.map`` that must return the identical
mapping and EDP.  A failed check prints ``"correct": false`` with no
metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # request stream: hot / mm (mm trains a surrogate)
    concurrency: int       # K requests kept in flight
    routed: bool = False   # through a one-shard ClusterRouter


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hot_mix", "hot", 32),
        Workload("mm_search", "mm", 8),
        Workload("routed_hot", "hot", 32, routed=True),
    )
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Served responses per run replayed through a fresh solo engine.map.
REPLAYS = 6
#: Timings of the calibration loop per reading; the reading is their median.
CALIBRATION_LOOPS = 5
#: How long a child process left alive gets to end after SIGTERM.
CHILD_STOP_TIMEOUT_S = 10.0
#: Tracing overhead: traced-minus-untraced difference of each timing.
OVERHEAD_METRICS = {
    "throughput_rps": "trace.overhead_rps",
    "latency_p50_ms": "trace.overhead_p50_ms",
    "latency_p95_ms": "trace.overhead_p95_ms",
}


def _load_program() -> None:
    """Put the program and the benchmark's modules on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: the program's source is missing ({SRC}); run from "
            "a checkout of the repository"
        )
    sys.path[:0] = [str(SRC), str(HERE)]


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this VM ran just
    then.  Context for reading the numbers, never a metric or a scale."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def mm_engine_config():
    """The small fixed Phase-1 recipe mm_search trains in set-up."""
    from repro import EngineConfig, MindMappingsConfig, TrainingConfig

    return EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=2000,
            n_problems=4,
            training=TrainingConfig(hidden_layers=(64, 64), epochs=10),
        )
    )


def stop_child_processes() -> None:
    """End every process the run started and wait for each.

    Shard processes are multiprocessing children: any that a closed (or
    never closed) router left alive is terminated and joined.  Spawning a
    shard also starts multiprocessing's resource tracker, which nothing
    joins and which would outlive this process; it is stopped and reaped
    last, once the shards that hold its pipe have ended."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(CHILD_STOP_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# Targets: what the generator submits to
# ----------------------------------------------------------------------


class Target:
    """One constructed serving stack plus the counters the ledger reads."""

    def __init__(self, workload: Workload) -> None:
        from repro import MappingEngine
        from repro.costmodel.accelerator import default_accelerator

        self.router = None
        self.server = None
        self.engine = None
        if workload.routed:
            from repro.cluster import ClusterConfig, ClusterRouter

            self.router = ClusterRouter(ClusterConfig(num_shards=1)).start()
            self.submit = self.router.submit
            return
        from repro.serve import MappingServer

        config = mm_engine_config() if workload.kind == "mm" else None
        self.engine = MappingEngine(default_accelerator(), config)
        if workload.kind == "mm":
            self.engine.pipeline_for("cnn-layer")
        self.server = MappingServer(self.engine)
        self.submit = self.server.submit

    def counters(self) -> Dict[str, float]:
        """Serve, oracle-cache and router counters, cumulative."""
        if self.router is not None:
            snapshot = self.router.metrics_snapshot()
            out = {f"serve.{k}": v for k, v in snapshot["fleet"]["counters"].items()}
            out.update({
                f"router.{k}": v
                for k, v in snapshot["router"]["counters"].items()
            })
            cache = snapshot["shards"]["0"].get("oracle_cache") or {}
        else:
            out = {
                f"serve.{k}": v
                for k, v in self.server.metrics_snapshot()["counters"].items()
            }
            stats = self.engine.oracle_stats()
            cache = {"hits": stats.hits, "misses": stats.misses,
                     "prewarmed": stats.prewarmed}
        for key in ("hits", "misses", "prewarmed"):
            out[f"cache.{key}"] = cache.get(key, 0)
        return out

    def shard_peak_rss_mb(self) -> float:
        """Peak RSS of the shard process (0 for in-process targets)."""
        if self.router is None:
            return 0.0
        pid = self.router.metrics_snapshot()["router"]["shards"]["0"]["pid"]
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self) -> None:
        if self.router is not None:
            self.router.shutdown(timeout=30.0)
        if self.server is not None:
            self.server.shutdown(timeout=30.0)


def serve_all(
    submit: Callable, requests: Sequence, concurrency: int
) -> List:
    """Serve ``requests`` closed-loop; every one must succeed."""
    from loop import run_closed_loop

    phase = run_closed_loop(
        submit, list(requests), concurrency, seconds=0.0,
        min_requests=len(requests),
    )
    failures = [o for o in phase.outcomes if o.response is None]
    if failures:
        raise RuntimeError(
            f"{len(failures)} set-up requests failed: {failures[0].error!r}"
        )
    return [o.response for o in phase.outcomes]


def set_up(workload: Workload) -> Tuple[Target, Dict]:
    """Build the stack and warm it with one cohort of traffic (the hot
    workloads' cohort is the hot set, whose responses later hits must
    match)."""
    from workloads import RequestStream, hot_set
    from repro.serve.codec import request_key

    target = Target(workload)
    if workload.kind != "hot":
        warm = RequestStream(workload.kind, 0, "warm").prefix(
            workload.concurrency
        )
        serve_all(target.submit, warm, workload.concurrency)
        return target, {}
    # The hot set is a full cohort of all-distinct work, so it warms too.
    hot = hot_set()
    responses = serve_all(target.submit, hot, workload.concurrency)
    return target, {
        request_key(request): response
        for request, response in zip(hot, responses)
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def check_responses(
    workload: Workload, phase, hot_responses: Dict, seed: int,
    replay_pipeline, panel: int,
) -> List[str]:
    """Every check the run makes on its responses; returns the failures."""
    import numpy as np

    from repro import MappingEngine
    from repro.costmodel.accelerator import default_accelerator
    from repro.serve.codec import request_key
    from workloads import is_hot_repeat

    problems: List[str] = [
        f"{o.request.tag}: quality-panel request failed: {o.error!r}"
        for o in phase.outcomes[:panel] if o.response is None
    ]
    served = phase.served
    for outcome in served:
        request, response = outcome.request, outcome.response
        if response.tag != request.tag or response.problem != request.problem.name:
            problems.append(f"{request.tag}: response is for "
                            f"{response.tag}/{response.problem}")
        if not response.norm_edp >= 1.0 - 1e-9:
            problems.append(f"{request.tag}: norm_edp {response.norm_edp} < 1")
        if is_hot_repeat(request):
            expected = hot_responses.get(request_key(request))
            if expected is None or (
                response.mapping != expected.mapping
                or response.stats.edp != expected.stats.edp
            ):
                problems.append(f"{request.tag}: hot repeat differs from set-up")
    rng = np.random.default_rng([seed, 0x5EED])
    picks = rng.choice(len(served), size=min(REPLAYS, len(served)),
                       replace=False)
    engine = MappingEngine(
        default_accelerator(), mm_engine_config() if workload.kind == "mm" else None
    )
    if replay_pipeline is not None:
        engine.install_pipeline("cnn-layer", replay_pipeline, source="replay")
    for pick in sorted(int(p) for p in picks):
        outcome = served[pick]
        solo = engine.map(outcome.request)
        if (solo.mapping != outcome.response.mapping
                or solo.stats.edp != outcome.response.stats.edp):
            problems.append(
                f"{outcome.request.tag}: served EDP {outcome.response.stats.edp!r}"
                f" != solo {solo.stats.edp!r}"
            )
    return problems


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def quantile_ms(latencies: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``latencies`` (seconds) in ms."""
    ordered = sorted(latencies)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value * 1000.0


def phase_numbers(phase) -> Dict[str, float]:
    served = phase.served
    latencies = [o.latency for o in served]
    return {
        "throughput_rps": len(served) / (phase.ended - phase.started),
        "latency_p50_ms": quantile_ms(latencies, 0.50),
        "latency_p95_ms": quantile_ms(latencies, 0.95),
        "samples": len(latencies),
    }


def norm_edp_geomean(phase, panel: int) -> float:
    values = [o.response.norm_edp for o in phase.outcomes[:panel]]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run_phase(target: Target, stream, concurrency: int, seconds: float,
              start_index: int = 0):
    """One drained closed-loop phase; the first one completes the panel."""
    from loop import run_closed_loop

    return run_closed_loop(
        target.submit, stream, concurrency, seconds,
        min_requests=stream.panel_size if start_index == 0 else 0,
        start_index=start_index,
    )


def merged(phases: Sequence):
    from loop import Phase

    return Phase(
        started=phases[0].started,
        ended=phases[-1].ended,
        outcomes=[o for phase in phases for o in phase.outcomes],
    )


def run_untraced(workload: Workload, seed: int, seconds: float) -> Dict:
    from workloads import RequestStream

    setup_times: List[float] = []
    replay_pipeline = None
    target = hot_responses = None
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        target, hot_responses = set_up(workload)
        setup_times.append(time.perf_counter() - started)
        if workload.kind == "mm" and replay_pipeline is None:
            # The replay engine gets the pipeline an earlier, independent
            # set-up trained: solo == served also pins training determinism.
            replay_pipeline = target.engine.pipeline_for("cnn-layer")
        if attempt < SETUP_REPEATS - 1:
            target.close()
    stream = RequestStream(workload.kind, seed)
    try:
        phase = run_phase(target, stream, workload.concurrency, seconds)
        shard_rss = target.shard_peak_rss_mb()
    finally:
        target.close()
    problems = check_responses(workload, phase, hot_responses, seed,
                               replay_pipeline, stream.panel_size)
    numbers = phase_numbers(phase)
    return {
        "problems": problems,
        "attempted": len(phase.outcomes),
        "failed": phase.failed,
        "metrics": {
            "throughput_rps": numbers["throughput_rps"],
            "latency_p50_ms": numbers["latency_p50_ms"],
            "latency_p95_ms": numbers["latency_p95_ms"],
            "norm_edp_geomean": math.nan if problems
            else norm_edp_geomean(phase, stream.panel_size),
            "success_frac": len(phase.served) / len(phase.outcomes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb() + shard_rss,
        },
        "context": {
            "latency_samples": numbers["samples"],
            "setup_times_s": setup_times,
            "panel_requests": stream.panel_size,
        },
    }


def run_traced(workload: Workload, seed: int, seconds: float) -> Dict:
    """Set-up traced; then an untraced half and a traced half of the
    timed phase, whose differences are the tracing overhead."""
    from layers import layer_metrics
    from ledger import Ledger
    from workloads import RequestStream

    ledger = Ledger()
    ledger.install()
    setup_started = time.perf_counter()
    target, hot_responses = set_up(workload)
    setup_ended = time.perf_counter()
    replay_pipeline = (
        target.engine.pipeline_for("cnn-layer") if workload.kind == "mm" else None
    )
    stream = RequestStream(workload.kind, seed)
    try:
        ledger.uninstall()
        plain = run_phase(target, stream, workload.concurrency, seconds / 2)
        ledger.install()
        before = target.counters()
        traced = run_phase(target, stream, workload.concurrency, seconds / 2,
                           start_index=plain.outcomes[-1].index + 1)
        after = target.counters()
        ledger.uninstall()
    finally:
        target.close()
    both = merged([plain, traced])
    problems = check_responses(workload, both, hot_responses, seed,
                               replay_pipeline, stream.panel_size)
    metrics = layer_metrics(
        ledger, traced, before, after, (setup_started, setup_ended)
    )
    plain_numbers, traced_numbers = phase_numbers(plain), phase_numbers(traced)
    for name, key in OVERHEAD_METRICS.items():
        metrics[key] = traced_numbers[name] - plain_numbers[name]
    OUT.mkdir(parents=True, exist_ok=True)
    ledger.write(
        OUT / f"{workload.name}-seed{seed}-spans.json",
        {"workload": workload.name, "seed": seed,
         "setup": [setup_started, setup_ended],
         "traced_phase": [traced.started, traced.ended]},
    )
    return {
        "problems": problems,
        "attempted": len(both.outcomes),
        "failed": both.failed,
        "metrics": metrics,
        "context": {
            "untraced": plain_numbers,
            "traced": traced_numbers,
            "spans": len(ledger.spans),
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    _load_program()
    from catalog import units

    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    calibration_before = calibration_s()
    runner = run_traced if args.trace else run_untraced
    try:
        record = runner(workload, args.seed, args.seconds)
    finally:
        stop_child_processes()
    record["context"]["calibration_s"] = [calibration_before, calibration_s()]
    record.update(workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    correct = not record["problems"]
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    unit_of = units()
    if correct:
        for name, value in record["metrics"].items():
            print(f"{workload.name:>13} {name:<34} {value:>14.6g} {unit_of[name]}")
    print(json.dumps({"context": record["context"]}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in record["metrics"].items()
        } if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
