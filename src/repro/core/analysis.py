"""Surrogate diagnostics: fidelity, calibration, and tail resolution.

Search quality is bounded by how well the surrogate ranks *good* mappings
against each other — global correlation alone hides a mushy tail.  These
helpers quantify exactly that (and power the EXPERIMENTS.md discussion of
why iso-iteration quality tracks training-set size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.surrogate import Surrogate
from repro.costmodel.lower_bound import algorithmic_minimum
from repro.costmodel.model import CostModel
from repro.mapspace.space import MapSpace
from repro.utils.rng import SeedLike, ensure_rng
from repro.workloads.problem import Problem


@dataclass(frozen=True)
class FidelityReport:
    """Surrogate-vs-oracle agreement on one problem's map space."""

    problem: str
    samples: int
    correlation: float
    tail_correlation: float
    tail_fraction: float
    rank_agreement: float
    mean_abs_error_log2: float

    def describe(self) -> str:
        return (
            f"{self.problem}: corr={self.correlation:.3f}, "
            f"tail corr (best {self.tail_fraction:.0%})={self.tail_correlation:.3f}, "
            f"rank agreement={self.rank_agreement:.3f}, "
            f"|err|={self.mean_abs_error_log2:.2f} log2"
        )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional (tie-averaged) ranks of ``values``, vectorized.

    Tied entries share the mean of the ranks they span — the convention
    Spearman's rho requires; plain ``argsort(argsort(x))`` breaks ties by
    position and biases the correlation whenever duplicates exist (common
    for predicted costs snapped to the same lattice point).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # Group boundaries of runs of equal values in sorted order.
    boundaries = np.empty(len(values), dtype=bool)
    boundaries[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundaries[1:])
    group = np.cumsum(boundaries) - 1
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    mean_rank = starts + (counts - 1) / 2.0
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = mean_rank[group]
    return ranks


def spearman_rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho between two samples, tie-aware and scipy-free.

    Pearson correlation of the fractional ranks (ties averaged).  Returns
    ``0.0`` when either side is constant (rank variance zero, rho
    undefined) and for samples shorter than two.  Shared by the surrogate
    fidelity report, the online-learning validation gate
    (:mod:`repro.learn.gate`), and the harness fidelity tables.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if len(a) < 2 or np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    return float(np.corrcoef(ra, rb)[0, 1])


def surrogate_fidelity(
    surrogate: Surrogate,
    problem: Problem,
    space: MapSpace,
    cost_model: CostModel,
    *,
    samples: int = 200,
    tail_fraction: float = 0.2,
    seed: SeedLike = None,
) -> FidelityReport:
    """Compare surrogate predictions to oracle truth on fresh samples.

    ``tail_correlation`` restricts to the best ``tail_fraction`` of samples
    by true cost — the region gradient search must resolve to find optima.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    if samples < 4:
        raise ValueError(f"need at least 4 samples, got {samples}")
    rng = ensure_rng(seed)
    bound = algorithmic_minimum(problem, space.accelerator)
    mappings = [space.sample(rng) for _ in range(samples)]
    truth = np.array(
        [
            math.log2(cost_model.evaluate_edp(m, problem) / bound.edp)
            for m in mappings
        ]
    )
    predicted = np.array(
        [
            surrogate.predict_log2_norm_edp(surrogate.whiten_mapping(m, problem))[0]
            for m in mappings
        ]
    )
    order = np.argsort(truth)
    tail = order[: max(int(samples * tail_fraction), 4)]
    tail_corr = float(np.corrcoef(truth[tail], predicted[tail])[0, 1])
    return FidelityReport(
        problem=problem.name,
        samples=samples,
        correlation=float(np.corrcoef(truth, predicted)[0, 1]),
        tail_correlation=tail_corr,
        tail_fraction=tail_fraction,
        rank_agreement=spearman_rank_correlation(truth, predicted),
        mean_abs_error_log2=float(np.abs(truth - predicted).mean()),
    )


__all__ = ["FidelityReport", "spearman_rank_correlation", "surrogate_fidelity"]
