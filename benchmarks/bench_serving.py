"""Serving throughput: the dynamic batcher vs per-request ``engine.map``.

Open-loop load generator over the serving stack: 32 concurrent clients
submit Poisson-arrival traffic drawn from a finite catalog of request
types (Table 1 CNN layers + BERT-base GEMMs x oracle searchers x seeds,
Zipf-weighted the way popular layers dominate real traffic).  Two arms,
fresh engine each:

* **baseline** — the pre-serve path: every request through per-request
  ``engine.map``, one at a time, no coalescing, no dedup;
* **serving** — the same arrival stream through ``MappingServer``:
  micro-batched cohorts (prewarmed vectorized oracle rounds), duplicate
  collapsing, response cache, one serve loop.

A third *all-distinct* pair isolates the coalescing win with dedup taken
off the table (every request unique).  Headline assertions (the slow-lane
gate from ISSUE 4): the serving arm sustains >= 2x baseline throughput on
the realistic mix (>= 3x is the demonstrated target, printed in the
report), and the metrics snapshot carries the batch-size histogram and
p50/p95/p99 latency.  Responses are spot-checked bit-identical to solo
serving.

A fourth arm reruns the all-distinct stream with tracing disabled (report
context), and the observability overhead gate (>= 0.95 on/off throughput,
i.e. span capture costs < 5%) is measured *paired*: the same fixed seeded
batch through ``serve_batch`` — the entire traced hot path (cohort
rounds, kernel spans, stage accounting) — with ambient traces vs
without, fresh engine each run so the work is identical, interleaved,
min-time per arm.  The open-loop arms cannot resolve a 5% budget: their
run-to-run spread is +-10-15% of batching/scheduling luck on the long
annealing requests.  Results land in ``BENCH_serving.json`` under
``tracing_overhead``.

The continuous sampling profiler gets the same paired-min treatment with
a tighter budget (>= 0.97, i.e. < 3%): ``serve_batch`` with a
``SamplingProfiler`` running at its default 5ms cadence vs without.
On a single usable core every thread shares one core and scheduler
jitter alone swings the paired-min ratio a few percent, so *both*
overhead gates degrade to a 10% bound there (the same convention as
the cluster bench's core-starved scaling floor).  Results land under
``profiler_overhead``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from conftest import add_report, write_bench_json

from repro.costmodel.accelerator import default_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.harness import format_table
from repro.serve import MappingServer, ServeConfig
from repro.workloads import problem_by_name

PROBLEMS = ("ResNet_Conv4", "AlexNet_Conv2", "BERT_AttnOut", "BERT_QKV")
SEARCHERS = ("random", "annealing", "genetic")
SEEDS_PER_TYPE = 3
ITERATIONS = 96
TOTAL_ARRIVALS = 288
CLIENTS = 32
#: Arrival rate overload factor vs measured baseline capacity: the open
#: loop must offer more than the batcher can absorb for the measured
#: throughput to be the batcher's, not the generator's.
OVERLOAD = 8.0

#: Overhead gates: tracing must cost < 5% and sampling < 3% throughput
#: on any multi-core host (the CI shape).  Core-starved, the
#: measurement floor is set by scheduler jitter (paired-min runs swing
#: several percent run to run when every thread shares one core), not
#: by the instrument — both gates degrade to a 10% overhead bound.
TRACING_BUDGET_MULTI_CORE = 0.95
PROFILER_BUDGET_MULTI_CORE = 0.97
SINGLE_CORE_BUDGET = 0.90


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


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
    """Zipf-weighted draws: popular request types dominate, as in serving."""
    catalog = _catalog()
    ranks = np.arange(1, len(catalog) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    indices = rng.choice(len(catalog), size=total, p=weights)
    return [catalog[i] for i in indices]


def _distinct_stream(total: int) -> List[MappingRequest]:
    """Every request unique: dedup can't help, only coalescing can."""
    catalog = _catalog()
    return [
        MappingRequest(
            base.problem, searcher=base.searcher, iterations=base.iterations,
            seed=1000 + i, tag=f"{base.tag}/distinct{i}",
        )
        for i, base in enumerate(
            catalog[i % len(catalog)] for i in range(total)
        )
    ]


def _fresh_engine() -> MappingEngine:
    return MappingEngine(default_accelerator(), EngineConfig())


def _tracing_overhead_ratio(
    requests_per_run: int = 24, repeats: int = 7
) -> Tuple[float, dict]:
    """Span-capture cost through the full cohort hot path.

    The same fixed seeded batch runs through ``serve_batch`` with ambient
    traces attached vs without; a fresh engine per run makes the search
    work identical, so the only variable is tracing.  Arms interleave and
    each is summarized by its *minimum* time (noise — scheduler, GC, a
    busy host — only ever slows a run down), which resolves a few-percent
    overhead that open-loop throughput runs cannot.  Returns the on/off
    throughput ratio (untraced time / traced time) plus detail.
    """
    from repro.obs.trace import Tracer, activate
    from repro.serve.cohort import serve_batch

    requests = _distinct_stream(requests_per_run)

    def run(traced: bool) -> float:
        engine = _fresh_engine()
        started = time.perf_counter()
        if traced:
            tracer = Tracer()
            handles = [tracer.start_trace("serve.request")
                       for _ in requests]
            with activate(handles):
                serve_batch(engine, requests)
            for handle in handles:
                handle.finish()
        else:
            serve_batch(engine, requests)
        return time.perf_counter() - started

    run(True), run(False)  # warmup pair (imports, numpy dispatch, caches)
    traced_times: List[float] = []
    untraced_times: List[float] = []
    for _ in range(repeats):
        traced_times.append(run(True))
        untraced_times.append(run(False))
    traced_best = min(traced_times)
    untraced_best = min(untraced_times)
    return untraced_best / traced_best, {
        "requests_per_run": requests_per_run,
        "repeats": repeats,
        "traced_rps": requests_per_run / traced_best,
        "untraced_rps": requests_per_run / untraced_best,
        "traced_times_s": traced_times,
        "untraced_times_s": untraced_times,
    }


def _profiler_overhead_ratio(
    requests_per_run: int = 24, repeats: int = 7, interval_s: float = 0.005
) -> Tuple[float, dict]:
    """Sampling-profiler cost through the full cohort hot path.

    Same paired-min protocol as :func:`_tracing_overhead_ratio`: the
    fixed seeded batch through ``serve_batch`` with a
    ``SamplingProfiler`` running at its default cadence vs without, fresh
    engine each run, interleaved, min-time per arm.  Returns the on/off
    throughput ratio (unprofiled time / profiled time) plus detail.
    """
    from repro.obs.profile import SamplingProfiler
    from repro.serve.cohort import serve_batch

    requests = _distinct_stream(requests_per_run)
    samples = 0

    def run(profiled: bool) -> float:
        nonlocal samples
        engine = _fresh_engine()
        profiler = SamplingProfiler(interval_s=interval_s) if profiled else None
        if profiler is not None:
            profiler.start()
        try:
            started = time.perf_counter()
            serve_batch(engine, requests)
            elapsed = time.perf_counter() - started
        finally:
            if profiler is not None:
                profiler.stop()
                samples += profiler.snapshot(limit=0)["samples"]
        return elapsed

    run(True), run(False)  # warmup pair (imports, numpy dispatch, caches)
    samples = 0
    profiled_times: List[float] = []
    unprofiled_times: List[float] = []
    for _ in range(repeats):
        profiled_times.append(run(True))
        unprofiled_times.append(run(False))
    profiled_best = min(profiled_times)
    unprofiled_best = min(unprofiled_times)
    return unprofiled_best / profiled_best, {
        "requests_per_run": requests_per_run,
        "repeats": repeats,
        "interval_s": interval_s,
        "samples_total": samples,
        "profiled_rps": requests_per_run / profiled_best,
        "unprofiled_rps": requests_per_run / unprofiled_best,
        "profiled_times_s": profiled_times,
        "unprofiled_times_s": unprofiled_times,
    }


def _baseline_throughput(requests: Sequence[MappingRequest]) -> float:
    engine = _fresh_engine()
    started = time.perf_counter()
    for request in requests:
        engine.map(request)
    return len(requests) / (time.perf_counter() - started)


def _serve_throughput(
    requests: Sequence[MappingRequest], rate_rps: float, tracing: bool = True
) -> Tuple[float, dict]:
    """Open-loop: CLIENTS threads submit on Poisson schedules at ``rate_rps``
    aggregate; throughput is arrivals / (last completion - first arrival)."""
    engine = _fresh_engine()
    server = MappingServer(
        engine,
        ServeConfig(
            max_batch=32,
            max_wait_s=0.004,
            max_queue=len(requests) + CLIENTS,  # measure saturation, not rejection
            tracing=tracing,
        ),
    )
    per_client = [list(requests[i::CLIENTS]) for i in range(CLIENTS)]
    futures: List[Future] = []
    futures_lock = threading.Lock()
    started = time.perf_counter()

    def client(client_index: int) -> None:
        rng = np.random.default_rng(10_000 + client_index)
        next_at = time.perf_counter()
        for request in per_client[client_index]:
            next_at += rng.exponential(CLIENTS / rate_rps)
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            future = server.submit(request)
            with futures_lock:
                futures.append(future)

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    responses = [future.result(timeout=600) for future in futures]
    elapsed = time.perf_counter() - started
    assert len(responses) == len(requests)
    # Spot-check: served responses are bit-identical to solo engine.map.
    solo_engine = _fresh_engine()
    for response in responses[:: max(len(responses) // 6, 1)]:
        request = next(r for r in requests if r.tag == response.tag)
        solo = solo_engine.map(request)
        assert response.mapping == solo.mapping, "serving changed a result"
        assert response.stats.edp == solo.stats.edp
    snapshot = server.metrics_snapshot()
    server.shutdown(timeout=60.0)
    return len(requests) / elapsed, snapshot


@pytest.mark.slow
def test_serving_throughput_vs_per_request_map(benchmark):
    rng = np.random.default_rng(0)

    # Calibrate offered load from a short sequential probe.
    probe = _zipf_stream(rng, 24)
    probe_rps = _baseline_throughput(probe)
    rate = probe_rps * OVERLOAD

    mix = _zipf_stream(rng, TOTAL_ARRIVALS)
    baseline_rps = _baseline_throughput(mix)
    serve_rps, snapshot = _serve_throughput(mix, rate)
    mix_ratio = serve_rps / baseline_rps

    distinct = _distinct_stream(TOTAL_ARRIVALS // 2)
    distinct_baseline_rps = _baseline_throughput(distinct)
    distinct_serve_rps, _ = _serve_throughput(distinct, rate)
    distinct_ratio = distinct_serve_rps / distinct_baseline_rps

    # Context row: the distinct stream once more with the tracer off.
    untraced_rps, _ = _serve_throughput(distinct, rate, tracing=False)

    # The overhead *gates* are measured paired (see module docstring).
    tracing_ratio, tracing_detail = _tracing_overhead_ratio()
    profiler_ratio, profiler_detail = _profiler_overhead_ratio()
    cores = usable_cores()
    tracing_budget = (TRACING_BUDGET_MULTI_CORE if cores >= 2
                      else SINGLE_CORE_BUDGET)
    profiler_budget = (PROFILER_BUDGET_MULTI_CORE if cores >= 2
                       else SINGLE_CORE_BUDGET)

    def once():
        return _serve_throughput(_zipf_stream(rng, 64), rate)

    benchmark.pedantic(once, rounds=1, iterations=1)

    latency = snapshot["latency"]
    rows = [
        ("zipf mix (dedup+batch)", f"{baseline_rps:.1f}", f"{serve_rps:.1f}",
         f"{mix_ratio:.1f}x"),
        ("all distinct (batch only)", f"{distinct_baseline_rps:.1f}",
         f"{distinct_serve_rps:.1f}", f"{distinct_ratio:.2f}x"),
        ("all distinct, tracing off", f"{distinct_baseline_rps:.1f}",
         f"{untraced_rps:.1f}",
         f"{untraced_rps / distinct_baseline_rps:.2f}x"),
    ]
    add_report(
        f"Serving throughput: {CLIENTS} open-loop Poisson clients, "
        f"{TOTAL_ARRIVALS} arrivals, {ITERATIONS} iters/request",
        format_table(
            ("load", "engine.map req/s", "served req/s", "speedup"), rows
        )
        + "\nbatch sizes: "
        + str(snapshot["batch_size"]["buckets"])
        + (
            f"\nlatency: p50={latency['p50_ms']:.0f}ms "
            f"p95={latency['p95_ms']:.0f}ms p99={latency['p99_ms']:.0f}ms"
        )
        + (
            f"\ncollapsed={snapshot['counters']['collapsed']} "
            f"cache_hits={snapshot['counters']['response_cache_hits']} "
            f"oracle hit rate={snapshot['oracle_cache']['hit_rate']:.0%}"
        )
        + (
            f"\ntracing overhead (paired serve_batch, min of "
            f"{tracing_detail['repeats']}): on/off throughput ratio "
            f"{tracing_ratio:.3f} "
            f"(budget >= {tracing_budget:.2f} on {cores} usable cores)"
        )
        + (
            f"\nprofiler overhead (paired serve_batch, min of "
            f"{profiler_detail['repeats']}, "
            f"{profiler_detail['interval_s'] * 1e3:.0f}ms cadence): "
            f"on/off throughput ratio {profiler_ratio:.3f} "
            f"(budget >= {profiler_budget:.2f} on {cores} usable cores)"
        ),
    )

    write_bench_json("serving", {
        "clients": CLIENTS,
        "arrivals": TOTAL_ARRIVALS,
        "iterations_per_request": ITERATIONS,
        "offered_rate_rps": rate,
        "configs": {
            "zipf_mix": {
                "baseline_rps": baseline_rps,
                "served_rps": serve_rps,
                "speedup": mix_ratio,
            },
            "all_distinct": {
                "baseline_rps": distinct_baseline_rps,
                "served_rps": distinct_serve_rps,
                "speedup": distinct_ratio,
            },
        },
        "latency_ms": {
            "p50": latency["p50_ms"],
            "p95": latency["p95_ms"],
            "p99": latency["p99_ms"],
        },
        "batch_size": snapshot["batch_size"],
        "counters": snapshot["counters"],
        "tracing_overhead": {
            "throughput_ratio": tracing_ratio,
            "budget": tracing_budget,
            "usable_cores": cores,
            "open_loop_untraced_rps": untraced_rps,
            **tracing_detail,
        },
        "profiler_overhead": {
            "throughput_ratio": profiler_ratio,
            "budget": profiler_budget,
            "usable_cores": cores,
            **profiler_detail,
        },
    })

    # Metrics acceptance: histogram + quantiles populated under load.
    assert snapshot["batch_size"]["count"] >= 1
    assert snapshot["batch_size"]["buckets"], "no batch sizes recorded"
    for field in ("p50_ms", "p95_ms", "p99_ms"):
        assert latency[field] is not None
    # Throughput acceptance (slow-lane gate; >= 3x is the demonstrated
    # target on the realistic mix — see the report table).
    assert mix_ratio >= 2.0, (
        f"dynamic batcher sustained only {mix_ratio:.2f}x of per-request "
        f"engine.map under {CLIENTS} open-loop clients"
    )
    # Coalescing alone must never cost throughput.
    assert distinct_ratio >= 0.9
    # Observability budget: span capture costs < 5% throughput
    # (multi-core; single-core degrades to the 10% overhead bound).
    assert tracing_ratio >= tracing_budget, (
        f"tracing-on throughput is {tracing_ratio:.3f} of tracing-off "
        f"(budget >= {tracing_budget:.2f} on {cores} usable cores): "
        f"span capture has grown too expensive"
    )
    # Profiler budget: continuous stack sampling costs < 3% throughput
    # (multi-core; single-core degrades to the 10% overhead bound).
    assert profiler_ratio >= profiler_budget, (
        f"profiler-on throughput is {profiler_ratio:.3f} of profiler-off "
        f"(budget >= {profiler_budget:.2f} on {cores} usable cores): "
        f"stack sampling has grown too expensive"
    )
