"""Timeloop-style analytical cost model for flexible accelerators.

This package is the reproduction's stand-in for the Timeloop infrastructure
the paper uses as its reference cost function ``f(m)`` (paper section 5.1.2).
It models a spatial accelerator with

* ``num_pes`` processing elements, each with a private L1 buffer,
* a shared, banked L2 buffer,
* DRAM behind a fixed-bandwidth channel, and
* a flexible NoC that multicasts operands across PEs.

Given a :class:`~repro.mapspace.Mapping` and a
:class:`~repro.workloads.Problem`, :class:`CostModel` produces a
:class:`CostStats` holding the paper's meta-statistics vector (per-level
per-tensor energy, cycles, utilization, total energy) from which EDP is
derived.  The model is intentionally *non-smooth* in the mapping — tiling
cliffs, reuse discontinuities, utilization steps — because that structure is
precisely what makes mapping space search hard (paper Figure 3).
"""

from repro.costmodel.accelerator import Accelerator, EnergyTable, default_accelerator
from repro.costmodel.stats import CostStats, TensorLevelEnergy
from repro.costmodel.batch import (
    BatchCostStats,
    MegaBatch,
    MegaBatchCostStats,
    compile_megabatch,
    evaluate_batch,
    evaluate_megabatch,
)
from repro.costmodel.model import CostModel
from repro.costmodel.cache import CacheStats, CachedOracle
from repro.costmodel.lower_bound import algorithmic_minimum
from repro.costmodel.nest import LoopNest, build_nest

__all__ = [
    "Accelerator",
    "BatchCostStats",
    "CacheStats",
    "CachedOracle",
    "CostModel",
    "CostStats",
    "EnergyTable",
    "LoopNest",
    "MegaBatch",
    "MegaBatchCostStats",
    "TensorLevelEnergy",
    "algorithmic_minimum",
    "build_nest",
    "compile_megabatch",
    "default_accelerator",
    "evaluate_batch",
    "evaluate_megabatch",
]
