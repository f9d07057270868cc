"""Experiment harness: regenerates the paper's figures and tables.

* :mod:`repro.harness.experiments` — iso-iteration (Figure 5) and iso-time
  (Figure 6, on a charged clock) comparison runners with multi-seed
  averaging and a shared true-EDP evaluation cache,
* :mod:`repro.harness.summary` — geomean ratio tables (the paper's headline
  1.40x / 1.76x / 1.29x numbers) and gap-to-lower-bound accounting,
* :mod:`repro.harness.surface` — the Figure 3 cost-surface sweep with
  non-smoothness statistics,
* :mod:`repro.harness.tables` — plain-text rendering (tables, log-scale
  ASCII convergence curves) used by the benchmark output.
"""

from repro.harness.experiments import (
    ORACLE_QUERY_S,
    SURROGATE_STEP_S,
    ExperimentConfig,
    MethodCurve,
    build_standard_methods,
    run_iso_iteration,
    run_iso_time,
)
from repro.harness.summary import RatioSummary, geomean_ratios, summarize_final_quality
from repro.harness.surface import CostSurface, sweep_cost_surface
from repro.harness.tables import ascii_curve, format_table

__all__ = [
    "ORACLE_QUERY_S",
    "SURROGATE_STEP_S",
    "CostSurface",
    "ExperimentConfig",
    "MethodCurve",
    "RatioSummary",
    "ascii_curve",
    "build_standard_methods",
    "format_table",
    "geomean_ratios",
    "run_iso_iteration",
    "run_iso_time",
    "summarize_final_quality",
    "sweep_cost_surface",
]
