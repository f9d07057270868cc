"""Figure 6: iso-time search quality on Table 1 problems.

The paper's headline speed result: MM never queries the expensive cost
oracle during search, so at a fixed time budget it fits dramatically more
optimization steps.  Time is charged, not measured: every oracle query
costs ``ORACLE_QUERY_S`` (the paper's Timeloop queries are 153-425x slower
than surrogate steps; the analytical oracle here is too fast, so the
latency is charged and reported explicitly) and every MM step
``SURROGATE_STEP_S``.  No clock is read, so the ratios repeat exactly.
"""

from conftest import add_report
from repro.harness import (
    ORACLE_QUERY_S,
    SURROGATE_STEP_S,
    ExperimentConfig,
    ascii_curve,
    build_standard_methods,
    format_table,
    geomean_ratios,
    run_iso_time,
)
from repro.workloads import cnn_problems, mttkrp_problems

TIME_BUDGET_S = 1.5  # paper: 62.5 s (MM convergence time on their Xeon)
RUNS = 2


def _run(accelerator, mm_instance, problems):
    methods = build_standard_methods(
        accelerator, mm_instance.surrogate, include=("MM", "SA", "GA", "RL", "Random")
    )
    config = ExperimentConfig(runs=RUNS, time_budget_s=TIME_BUDGET_S)
    return {
        problem.name: run_iso_time(problem, accelerator, methods, config, seed=23)
        for problem in problems
    }


def _report(title, curves_by_problem):
    lines = [
        f"time budget {TIME_BUDGET_S}s, charged {ORACLE_QUERY_S * 1e3:.0f} ms "
        f"per oracle query and {SURROGATE_STEP_S * 1e3:.1f} ms per surrogate step",
        "",
    ]
    for problem, curves in curves_by_problem.items():
        row = "  ".join(
            f"{name}={curve.final_norm_edp:.2f}" for name, curve in curves.items()
        )
        lines.append(f"{problem}: {row}")
    lines.append("")
    for ratio in geomean_ratios(curves_by_problem):
        lines.append(
            ratio.describe() + "  [paper iso-time: SA 3.16x, GA 4.19x, RL 2.90x]"
        )
    first = next(iter(curves_by_problem))
    lines.append("")
    lines.append(
        ascii_curve(curves_by_problem[first], title=f"{first} quality vs charged time")
    )
    add_report(title, "\n".join(lines))


def test_fig6_cnn(benchmark, accelerator, cnn_mm):
    curves = benchmark.pedantic(
        _run, args=(accelerator, cnn_mm, cnn_problems()), rounds=1, iterations=1
    )
    _report("Figure 6 (CNN-Layer iso-time)", curves)
    ratios = {r.baseline: r.ratio for r in geomean_ratios(curves)}
    # The paper's qualitative claim: at iso-time, MM clearly beats every
    # oracle-driven baseline (who wins, not the exact factor).
    assert ratios["SA"] > 1.2
    assert ratios["Random"] > 1.0


def test_fig6_mttkrp(benchmark, accelerator, mttkrp_mm):
    curves = benchmark.pedantic(
        _run, args=(accelerator, mttkrp_mm, mttkrp_problems()), rounds=1, iterations=1
    )
    _report("Figure 6 (MTTKRP iso-time)", curves)
    ratios = {r.baseline: r.ratio for r in geomean_ratios(curves)}
    assert ratios["SA"] > 1.0
