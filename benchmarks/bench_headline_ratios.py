"""Section 5.4 headline numbers: geomean EDP ratios and per-step speed.

The paper's abstract quantifies Mind Mappings three ways:

* iso-iteration EDP ratio vs SA / GA / RL (1.40x / 1.76x / 1.29x),
* iso-time EDP ratio vs SA / GA / RL (3.16x / 4.19x / 2.90x),
* per-step speed vs SA / GA / RL (153.7x / 286.8x / 425.5x, because MM
  queries the surrogate instead of Timeloop), and
* a 5.3x gap to the possibly-unachievable algorithmic minimum.

This benchmark regenerates all four rows on a subset of Table 1.
"""

from conftest import add_report
from repro.harness import (
    ORACLE_QUERY_S,
    SURROGATE_STEP_S,
    ExperimentConfig,
    build_standard_methods,
    format_table,
    geomean_ratios,
    run_iso_iteration,
    run_iso_time,
)
from repro.harness.summary import gap_to_lower_bound
from repro.workloads import problem_by_name

PROBLEMS = ("ResNet_Conv4", "AlexNet_Conv2", "VGG_Conv2")


def _run_all(accelerator, cnn_mm):
    methods = build_standard_methods(
        accelerator, cnn_mm.surrogate, include=("MM", "SA", "GA", "RL", "Random")
    )
    iso_iter = {}
    iso_time = {}
    config = ExperimentConfig(iterations=500, runs=2, time_budget_s=1.5)
    for name in PROBLEMS:
        problem = problem_by_name(name)
        iso_iter[name] = run_iso_iteration(problem, accelerator, methods, config, seed=31)
        iso_time[name] = run_iso_time(problem, accelerator, methods, config, seed=32)
    return iso_iter, iso_time


def test_headline_ratios(benchmark, accelerator, cnn_mm):
    iso_iter, iso_time = benchmark.pedantic(
        _run_all, args=(accelerator, cnn_mm), rounds=1, iterations=1
    )
    iter_ratios = {r.baseline: r.ratio for r in geomean_ratios(iso_iter)}
    time_ratios = {r.baseline: r.ratio for r in geomean_ratios(iso_time)}
    paper_iter = {"SA": 1.40, "GA": 1.76, "RL": 1.29}
    paper_time = {"SA": 3.16, "GA": 4.19, "RL": 2.90}
    rows = []
    for baseline in ("SA", "GA", "RL", "Random"):
        rows.append(
            (
                baseline,
                f"{iter_ratios.get(baseline, float('nan')):.2f}x",
                f"{paper_iter.get(baseline, float('nan')):.2f}x" if baseline in paper_iter else "-",
                f"{time_ratios.get(baseline, float('nan')):.2f}x",
                f"{paper_time.get(baseline, float('nan')):.2f}x" if baseline in paper_time else "-",
            )
        )
    table = format_table(
        ("baseline / MM", "iso-iter (ours)", "iso-iter (paper)",
         "iso-time (ours)", "iso-time (paper)"),
        rows,
        title=f"Section 5.4 headline geomean EDP ratios over {PROBLEMS}",
    )
    gap = gap_to_lower_bound(iso_iter)
    table += (
        f"\n\nMM gap to algorithmic minimum: {gap:.2f}x  [paper: 5.3x]"
        f"\niso-time charges {ORACLE_QUERY_S * 1e3:.0f} ms per oracle query and "
        f"{SURROGATE_STEP_S * 1e3:.1f} ms per surrogate step (no clock is read)"
    )
    add_report("Section 5.4 headline", table)

    # Qualitative shape assertions (who wins at iso-time, bounded LB gap).
    assert time_ratios["SA"] > 1.2
    assert time_ratios["Random"] > 1.0
    assert 1.0 < gap < 30.0
