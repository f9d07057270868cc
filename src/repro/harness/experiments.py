"""Iso-iteration and iso-time experiment runners (Figures 5 and 6).

Methodology follows paper section 5.2: each method runs ``runs`` times with
different seeds; at every cost-function evaluation the best-so-far *true*
EDP (normalized to the algorithmic minimum) is recorded; curves are averaged
across runs.  Mind Mappings' own objective is its surrogate, so its visited
mappings are re-scored with the true cost model *after* the search — exactly
how the paper plots MM against oracle-driven baselines.

Iso-time runs read no clock.  Each evaluation is charged a fixed time —
:data:`ORACLE_QUERY_S` for an oracle-driven searcher, :data:`SURROGATE_STEP_S`
for any other — so a time budget is an evaluation budget per searcher, and
two runs at one seed plot identical curves on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.accelerator import Accelerator
from repro.costmodel.cache import CachedOracle
from repro.costmodel.lower_bound import algorithmic_minimum
from repro.costmodel.model import CostModel
from repro.mapspace.space import MapSpace
from repro.search.base import OracleSearcher, SearchResult, Searcher
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs
from repro.workloads.problem import Problem

#: Builds a searcher for one problem's map space.
SearcherFactory = Callable[[MapSpace], Searcher]

#: Charged seconds per evaluation of an oracle-driven searcher: one
#: simulated reference cost-model query (the paper's Timeloop is 150-425x
#: slower per query than a surrogate step; the analytical oracle here takes
#: well under a millisecond, so the query's time is charged, not spent).
ORACLE_QUERY_S = 0.02
#: Charged seconds per evaluation of any other searcher: one Mind Mappings
#: step (a solo step on ResNet_Conv4 with the benchmarks' surrogate measured
#: 0.42-0.54 ms on a 2-vCPU VM).
SURROGATE_STEP_S = 5e-4


@dataclass
class ExperimentConfig:
    """Shared knobs for figure experiments.

    ``iterations`` is the iso-iteration budget; ``time_budget_s`` is the
    iso-time budget in charged seconds (see :func:`run_iso_time`).
    """

    iterations: int = 500
    runs: int = 3
    time_budget_s: float = 2.0


@dataclass
class MethodCurve:
    """Averaged convergence curve of one method on one problem."""

    method: str
    problem: str
    grid: np.ndarray  # iteration numbers (iso-iteration) or charged seconds (iso-time)
    mean_best_norm_edp: np.ndarray
    std_best_norm_edp: np.ndarray
    runs: int
    final_norm_edp: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.mean_best_norm_edp):
            raise ValueError("grid and curve lengths differ")
        self.final_norm_edp = float(self.mean_best_norm_edp[-1])


def _best_so_far_true(
    result: SearchResult,
    oracle: CachedOracle,
    problem: Problem,
    lower_bound_edp: float,
) -> np.ndarray:
    """Best-so-far true normalized EDP after each evaluation.

    ``oracle`` is the shared memoized true-cost oracle
    (:class:`repro.costmodel.cache.CachedOracle`); the whole trace is
    re-scored in one batched ``evaluate_many`` query — mappings repeat
    heavily in traces, so the oracle answers most of the batch from cache
    and forwards only the distinct misses to the true model, which prices
    them in a single vectorized pass (:mod:`repro.costmodel.batch`).
    """
    if result.n_evaluations == 0:
        return np.empty(0)
    edps = np.asarray(oracle.evaluate_many(result.mappings, problem))
    return np.minimum.accumulate(edps / lower_bound_edp)


def _average_curves(curves: Sequence[np.ndarray]) -> tuple:
    """Truncate to the shortest run and average (mean, std)."""
    length = min(len(c) for c in curves)
    stacked = np.stack([c[:length] for c in curves])
    return stacked.mean(axis=0), stacked.std(axis=0), length


def _run_methods(
    problem: Problem,
    accelerator: Accelerator,
    methods: Dict[str, SearcherFactory],
    runs: int,
    seed: SeedLike,
    schedule: Callable[[Searcher], Tuple[int, float]],
) -> Dict[str, MethodCurve]:
    """Run every method ``runs`` times and average its true-EDP curves.

    ``schedule(searcher)`` gives a run's evaluation budget and the x-axis
    step per evaluation, so evaluation ``k`` is plotted at ``k * step``.
    """
    rng = ensure_rng(seed)
    space = MapSpace(problem, accelerator)
    oracle = CachedOracle(CostModel(accelerator))
    lower_bound = algorithmic_minimum(problem, accelerator).edp

    curves: Dict[str, MethodCurve] = {}
    for name, factory in methods.items():
        run_curves: List[np.ndarray] = []
        for run_rng in spawn_rngs(rng, runs):
            searcher = factory(space)
            iterations, step = schedule(searcher)
            result = searcher.run(iterations, seed=run_rng)
            run_curves.append(
                _best_so_far_true(result, oracle, problem, lower_bound)
            )
        mean, std, length = _average_curves(run_curves)
        curves[name] = MethodCurve(
            method=name,
            problem=problem.name,
            grid=np.arange(1, length + 1, dtype=float) * step,
            mean_best_norm_edp=mean,
            std_best_norm_edp=std,
            runs=runs,
        )
    return curves


def run_iso_iteration(
    problem: Problem,
    accelerator: Accelerator,
    methods: Dict[str, SearcherFactory],
    config: Optional[ExperimentConfig] = None,
    seed: SeedLike = None,
) -> Dict[str, MethodCurve]:
    """Figure 5 experiment: fixed evaluation budget, quality vs iteration."""
    config = config or ExperimentConfig()
    return _run_methods(
        problem, accelerator, methods, config.runs, seed,
        lambda searcher: (config.iterations, 1.0),
    )


def run_iso_time(
    problem: Problem,
    accelerator: Accelerator,
    methods: Dict[str, SearcherFactory],
    config: Optional[ExperimentConfig] = None,
    seed: SeedLike = None,
) -> Dict[str, MethodCurve]:
    """Figure 6 experiment: fixed time budget, quality vs charged time.

    Iso-iteration on a charged clock: a searcher whose evaluations cost
    ``c`` seconds each (:data:`ORACLE_QUERY_S` for an
    :class:`~repro.search.base.OracleSearcher`, :data:`SURROGATE_STEP_S`
    otherwise) runs ``floor(config.time_budget_s / c)`` evaluations — its
    ``reset`` sees that budget — and evaluation ``k`` is plotted at
    ``k * c`` seconds.
    """
    config = config or ExperimentConfig()

    def schedule(searcher: Searcher) -> Tuple[int, float]:
        charge = (
            ORACLE_QUERY_S if isinstance(searcher, OracleSearcher)
            else SURROGATE_STEP_S
        )
        # The tolerance keeps a budget that is a whole number of charges
        # from losing an evaluation to float division (0.58 / 0.02 is
        # 28.999999999999996).
        return math.floor(config.time_budget_s / charge + 1e-9), charge

    return _run_methods(
        problem, accelerator, methods, config.runs, seed, schedule
    )


def build_standard_methods(
    accelerator: Accelerator,
    surrogate=None,
    *,
    include: Sequence[str] = ("MM", "SA", "GA", "RL", "Random"),
    ga_population: int = 100,
) -> Dict[str, SearcherFactory]:
    """Factories for the paper's comparison set.

    Figure labels resolve through the engine's searcher registry
    (:func:`repro.engine.make_searcher`) so the set automatically covers
    any searcher registered under the matching name.  ``surrogate`` (a
    trained :class:`repro.core.Surrogate`) is required whenever "MM" is
    included.  Import is deferred to avoid a package cycle (core already
    imports search.base).
    """
    from repro.engine.registry import make_searcher

    model = CostModel(accelerator)
    #: Figure label -> (registry name, constructor config).
    label_specs = {
        "MM": ("gradient", {}),
        "SA": ("annealing", {"cost_model": model}),
        "GA": ("genetic", {"cost_model": model, "population_size": ga_population}),
        "RL": ("rl", {"cost_model": model}),
        "Random": ("random", {"cost_model": model}),
    }
    factories: Dict[str, SearcherFactory] = {}
    for name in include:
        if name not in label_specs:
            raise KeyError(f"unknown method {name!r}")
        registry_name, spec_config = label_specs[name]
        if name == "MM":
            if surrogate is None:
                raise ValueError("MM requires a trained surrogate")
            spec_config = {"surrogate": surrogate}
        factories[name] = (
            lambda space, rn=registry_name, cfg=spec_config: make_searcher(
                rn, space, **cfg
            )
        )
    return factories


__all__ = [
    "ORACLE_QUERY_S",
    "SURROGATE_STEP_S",
    "ExperimentConfig",
    "MethodCurve",
    "SearcherFactory",
    "build_standard_methods",
    "run_iso_iteration",
    "run_iso_time",
]
