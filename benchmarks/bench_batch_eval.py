"""Scalar vs. batched evaluation: the payoff of ask/tell batching.

Two headline claims, both asserted so regressions fail the benchmark suite
rather than silently degrading the hot path:

* **Surrogate batching** (PR 2): handing the surrogate whole populations
  (one encoded (N, D) matrix, one stacked network forward) beats N scalar
  ``predict_edp_mapping`` calls, because the MLP's matmuls amortize across
  rows.  Measured for the prediction-only path (what gradient search's
  injection candidates take) and the fused objective+gradient path (what
  vectorized multi-restart gradient search runs every iteration).
* **Analytical batching** (PR 3): ``CostModel.evaluate_many`` lowers the
  population to stacked arrays and runs the vectorized reuse/traffic
  kernels (:mod:`repro.costmodel.batch`) instead of N Python loop-nest
  walks.  This is the backend every true-cost batch bottoms out in —
  Phase 1 dataset generation, baseline generation scoring, cache miss
  batches, harness trace re-scoring.

The acceptance bar for each batched path is >= 5x throughput over its
scalar loop at N=256.

A third claim rides on the cross-problem megabatch path:

* **Cross-problem megabatching** (this PR): a *mixed* batch — lanes spread
  uniformly over all 8 Table 1 problems — priced by one
  ``evaluate_many_grouped`` kernel run beats the per-problem-group
  baseline (8 separate ``evaluate_many`` calls over the same lanes) by
  >= 3x at N=256 total.  Measured with interleaved paired sampling and a
  median-of-ratios estimate so a background load spike during one phase
  cannot fake (or mask) a regression; the trajectory lands in
  ``BENCH_batch_eval.json``.
"""

from __future__ import annotations

import statistics
import time

from conftest import add_report, write_bench_json

from repro.costmodel import CostModel, default_accelerator
from repro.harness import format_table
from repro.mapspace import MapSpace
from repro.workloads import TABLE1_PROBLEMS, problem_by_name

BATCH_SIZES = (1, 32, 256)
ANALYTICAL_BATCH_SIZES = (16, 64, 256)
TARGET_SPEEDUP_AT_256 = 5.0
MIXED_TOTAL = 256
MIXED_TARGET_SPEEDUP = 3.0


def _throughput(fn, repeats: int, candidates: int) -> float:
    """Candidates priced per second over ``repeats`` timed calls."""
    started = time.perf_counter()
    for _ in range(repeats):
        fn()
    elapsed = time.perf_counter() - started
    return repeats * candidates / max(elapsed, 1e-12)


def test_batched_surrogate_throughput(benchmark, accelerator, cnn_mm):
    surrogate = cnn_mm.surrogate
    problem = problem_by_name("ResNet_Conv4")
    space = MapSpace(problem, accelerator)

    rows = []
    speedups = {}
    for size in BATCH_SIZES:
        population = space.sample_many(size, seed=size)
        # Repeat counts keep each measurement in the ~0.1s+ range.
        repeats = max(2048 // size, 4)

        def scalar_predict():
            return [surrogate.predict_edp_mapping(m, problem) for m in population]

        def batched_predict():
            return surrogate.predict_edp_many(population, problem)

        whitened = surrogate.whiten_mappings(population, problem)

        def scalar_gradient():
            return [surrogate.objective_and_gradient(row) for row in whitened]

        def batched_gradient():
            return surrogate.objective_and_gradient_batch(whitened)

        scalar_rate = _throughput(scalar_predict, repeats, size)
        batched_rate = _throughput(batched_predict, repeats, size)
        scalar_grad_rate = _throughput(scalar_gradient, repeats, size)
        batched_grad_rate = _throughput(batched_gradient, repeats, size)
        speedups[size] = batched_rate / scalar_rate
        rows.append(
            (
                f"{size}",
                f"{scalar_rate:,.0f}/s",
                f"{batched_rate:,.0f}/s",
                f"{batched_rate / scalar_rate:.1f}x",
                f"{batched_grad_rate / scalar_grad_rate:.1f}x",
            )
        )

    def once():
        population = space.sample_many(256, seed=256)
        return surrogate.predict_edp_many(population, problem)

    benchmark.pedantic(once, rounds=3, iterations=1)

    add_report(
        "Batched vs scalar surrogate evaluation (ask/tell API)",
        format_table(
            ["N", "scalar", "batched", "predict speedup", "grad speedup"], rows
        ),
    )
    assert speedups[256] >= TARGET_SPEEDUP_AT_256, (
        f"batched surrogate evaluation at N=256 is only "
        f"{speedups[256]:.1f}x the scalar loop (need >= "
        f"{TARGET_SPEEDUP_AT_256}x)"
    )


def test_batched_analytical_throughput(benchmark):
    """Scalar ``evaluate`` loop vs. vectorized ``evaluate_many`` (exact)."""
    accelerator = default_accelerator()
    model = CostModel(accelerator)
    problem = problem_by_name("ResNet_Conv4")
    space = MapSpace(problem, accelerator)

    rows = []
    speedups = {}
    for size in ANALYTICAL_BATCH_SIZES:
        population = space.sample_many(size, seed=size)
        # The scalar loop prices ~7k mappings/s; keep each timing >= ~0.05s.
        repeats = max(512 // size, 3)

        def scalar_loop():
            return [model.evaluate(m, problem).edp for m in population]

        def batched():
            return model.evaluate_many(population, problem)

        scalar_rate = _throughput(scalar_loop, repeats, size)
        batched_rate = _throughput(batched, repeats, size)
        speedups[size] = batched_rate / scalar_rate
        rows.append(
            (
                f"{size}",
                f"{scalar_rate:,.0f}/s",
                f"{batched_rate:,.0f}/s",
                f"{batched_rate / scalar_rate:.1f}x",
            )
        )

    def once():
        return model.evaluate_many(space.sample_many(256, seed=256), problem)

    benchmark.pedantic(once, rounds=3, iterations=1)

    add_report(
        "Batched vs scalar analytical cost model (vectorized backend)",
        format_table(["N", "scalar", "batched", "speedup"], rows),
    )
    assert speedups[256] >= TARGET_SPEEDUP_AT_256, (
        f"batched analytical evaluation at N=256 is only "
        f"{speedups[256]:.1f}x the scalar loop (need >= "
        f"{TARGET_SPEEDUP_AT_256}x)"
    )


def test_cross_problem_megabatch_throughput(benchmark):
    """Mixed-mix union: one megabatch run vs. per-problem-group batching.

    N=256 lanes uniform over the 8 Table 1 problems.  The baseline already
    uses the vectorized per-problem kernels — the claim under test is
    purely the cross-problem union's amortization (one compile, one kernel
    pass, however many problems are live).
    """
    import numpy as np

    accelerator = default_accelerator()
    model = CostModel(accelerator)
    per_problem = MIXED_TOTAL // len(TABLE1_PROBLEMS)
    groups = [
        (problem, MapSpace(problem, accelerator).sample_many(per_problem, seed=i))
        for i, problem in enumerate(TABLE1_PROBLEMS)
    ]
    lanes = [
        (mapping, problem) for problem, mappings in groups for mapping in mappings
    ]
    order = np.random.RandomState(7).permutation(len(lanes))
    mappings = [lanes[i][0] for i in order]
    problems = [lanes[i][1] for i in order]

    def baseline():
        values = {}
        for problem, group_mappings in groups:
            values[problem.name] = model.evaluate_many(group_mappings, problem)
        return values

    def megabatched():
        return model.evaluate_many_grouped(mappings, problems)

    # Parity first: the union must price every lane exactly like its
    # per-problem group (same kernels, same rows).
    by_problem = baseline()
    flat = {}
    for problem, group_mappings in groups:
        for mapping, value in zip(group_mappings, by_problem[problem.name]):
            flat[id(mapping)] = value
    union = megabatched()
    for mapping, value in zip(mappings, union):
        assert value == flat[id(mapping)]

    # Interleaved paired sampling: warm both paths, then alternate
    # baseline/mega in adjacent pairs so load spikes hit both sides.
    baseline()
    megabatched()
    pairs = []
    for _ in range(9):
        started = time.perf_counter()
        baseline()
        baseline_s = time.perf_counter() - started
        started = time.perf_counter()
        megabatched()
        mega_s = time.perf_counter() - started
        pairs.append((baseline_s, mega_s))
    ratios = [b / m for b, m in pairs]
    speedup = statistics.median(ratios)
    baseline_rate = MIXED_TOTAL / statistics.median(b for b, _ in pairs)
    mega_rate = MIXED_TOTAL / statistics.median(m for _, m in pairs)

    def once():
        return megabatched()

    benchmark.pedantic(once, rounds=3, iterations=1)

    add_report(
        "Cross-problem megabatch vs per-problem-group batching (mixed mix)",
        format_table(
            ["N total", "problems", "per-group", "megabatch", "speedup"],
            [
                (
                    f"{MIXED_TOTAL}",
                    f"{len(TABLE1_PROBLEMS)}",
                    f"{baseline_rate:,.0f}/s",
                    f"{mega_rate:,.0f}/s",
                    f"{speedup:.1f}x",
                )
            ],
        ),
    )
    write_bench_json(
        "batch_eval",
        {
            "mixed_mix": {
                "n_total": MIXED_TOTAL,
                "n_problems": len(TABLE1_PROBLEMS),
                "per_group_rate_per_s": baseline_rate,
                "megabatch_rate_per_s": mega_rate,
                "speedup_median_of_ratios": speedup,
                "pair_ratios": ratios,
                "pair_seconds": pairs,
                "target_speedup": MIXED_TARGET_SPEEDUP,
            }
        },
    )
    assert speedup >= MIXED_TARGET_SPEEDUP, (
        f"cross-problem megabatch at N={MIXED_TOTAL} over "
        f"{len(TABLE1_PROBLEMS)} problems is only {speedup:.1f}x the "
        f"per-problem-group baseline (need >= {MIXED_TARGET_SPEEDUP}x)"
    )
