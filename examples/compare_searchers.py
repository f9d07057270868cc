#!/usr/bin/env python3
"""Compare Mind Mappings against SA / GA / RL / Random on a CNN layer.

Reproduces a single cell of the paper's Figure 5 / Figure 6 experiments:
one target problem, all search methods, iso-iteration and iso-time, with
convergence curves rendered as ASCII plots.

Usage::

    python examples/compare_searchers.py [problem-name]

``problem-name`` is any Table 1 row (default: ResNet_Conv4).
"""

import sys

from repro import (
    MindMappings,
    MindMappingsConfig,
    TrainingConfig,
    default_accelerator,
    problem_by_name,
)
from repro.harness import (
    ORACLE_QUERY_S,
    SURROGATE_STEP_S,
    ExperimentConfig,
    ascii_curve,
    build_standard_methods,
    format_table,
    run_iso_iteration,
    run_iso_time,
    summarize_final_quality,
)


def main() -> None:
    problem_name = sys.argv[1] if len(sys.argv) > 1 else "ResNet_Conv4"
    problem = problem_by_name(problem_name)
    if problem.algorithm != "cnn-layer":
        raise SystemExit("this example trains a CNN-layer surrogate; pick a CNN row")
    accelerator = default_accelerator()

    print("Phase 1: training the surrogate...")
    mm = MindMappings.train(
        "cnn-layer",
        accelerator,
        MindMappingsConfig(dataset_samples=15_000, training=TrainingConfig(epochs=25)),
        seed=0,
    )

    methods = build_standard_methods(
        accelerator, mm.surrogate, include=("MM", "SA", "GA", "RL", "Random")
    )
    config = ExperimentConfig(iterations=600, runs=2, time_budget_s=2.0)

    print(f"\nIso-iteration comparison on {problem.describe()} "
          f"({config.iterations} evaluations x {config.runs} runs)")
    curves = run_iso_iteration(problem, accelerator, methods, config, seed=7)
    print(format_table(
        ("method", "final norm EDP", "runs"),
        summarize_final_quality(curves),
    ))
    print()
    print(ascii_curve(curves, title=f"{problem.name}: best-so-far normalized EDP"))

    print(f"\nIso-time comparison ({config.time_budget_s}s budget, charged "
          f"{ORACLE_QUERY_S * 1e3:.0f} ms per oracle query and "
          f"{SURROGATE_STEP_S * 1e3:.1f} ms per surrogate step)")
    time_curves = run_iso_time(problem, accelerator, methods, config, seed=8)
    print(format_table(
        ("method", "final norm EDP", "runs"),
        summarize_final_quality(time_curves),
    ))
    print()
    print(ascii_curve(time_curves, title=f"{problem.name}: quality vs charged time"))


if __name__ == "__main__":
    main()
