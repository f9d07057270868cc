"""Vectorized batched analytical cost model.

The scalar :class:`~repro.costmodel.model.CostModel` prices one mapping at a
time: it builds a :class:`~repro.costmodel.nest.LoopNest` of Python objects,
walks it per tensor for the Timeloop-style temporal-reuse products, and
assembles a :class:`~repro.costmodel.stats.CostStats`.  Every batched caller
— Phase 1 training-set generation, the ask/tell baselines' generation
scoring, :class:`~repro.costmodel.cache.CachedOracle` miss batches, harness
trace re-scoring — ultimately prices *populations* of mappings against one
``(problem, accelerator)`` pair, so this module amortizes the analysis
across the population instead:

1. :func:`compile_batch` lowers ``N`` mappings into stacked numpy arrays —
   per-level tile factors ``(N, D, 4)``, the concatenated temporal loop
   nest as aligned bound/dimension matrices ``(N, 3D)`` (outermost
   position first), per-level tile extents, and spatial sizes — with the
   same structural validation as ``CostModel._check_structure``.
2. :func:`evaluate_batch` runs the traffic/energy/cycles kernels over those
   arrays: fill/reuse products via masked cumulative products along the
   nest axis, footprints and multicast copies via gathers over the dim
   axis, then the exact scalar traffic formulas applied elementwise.

The result is a :class:`BatchCostStats` holding per-(mapping, tensor,
level) access counts and ``(N,)`` energy/cycles/utilization/EDP vectors —
enough to rebuild any row's full :class:`CostStats` (:meth:`BatchCostStats.
stats_at`) and to build the surrogate's meta-statistics targets without a
per-row Python loop (:meth:`BatchCostStats.meta_matrix`).

Semantics are *identical* to the scalar model, not approximated: the
bound-1 loop elision rule is reproduced by masking bound-1 loops out of
the relevance tests (they contribute a factor of 1 to every product, so
only their reuse-breaking effect must be suppressed), and every arithmetic
expression mirrors the scalar code's operation order.  The parity suite
(``tests/test_costmodel_batch.py``) holds scalar and batched EDP to a
relative tolerance of 1e-9 across every Table 1 workload on both
accelerator configurations; in practice agreement is at machine precision
for all realistic problem sizes (all intermediate reuse products stay
below 2**53 and stay exact in float64).

Cross-problem megabatching
--------------------------

:func:`compile_batch` requires every mapping to share one problem, so a
serving round over a diverse traffic mix degenerates to one kernel call
per distinct problem.  :func:`compile_megabatch` /
:func:`evaluate_megabatch` lift that restriction with the wide-with-masks
idiom: heterogeneous ``(mapping, problem)`` lanes are lowered into one
rectangular array set by padding the dimension axis to ``max(D)`` with
``(1, 1, 1, 1)`` tile factors and the nest axis to ``3 * max(D)`` with
bound-1 loops (inert by the same elision masking), while everything
per-problem — tensor relevance, sliding-window footprint axes, output
roles, ops per point — lives in per-problem tables gathered per lane
through ``problem_idx``.  The kernels then run *once* over the union,
vectorized over the tensor-slot axis as well, with invalid (padding)
slots masked to zero traffic.  Every lane's arithmetic is ordered exactly
as the homogeneous kernel orders it, and padding only ever multiplies by
1.0 or adds 0.0, so a lane's statistics are **bitwise identical** to
evaluating its problem's slice through :func:`evaluate_batch` — which is
what lets the serving layer union a whole round across all live problems
into a single kernel call without perturbing any response.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.accelerator import Accelerator, MEMORY_LEVELS
from repro.costmodel.stats import CostStats, TensorLevelEnergy
from repro.mapspace.mapping import Mapping
from repro.workloads.problem import Problem, TensorSpec

#: Tile-factor slot indices within a mapping's per-dimension factor tuple.
_DRAM, _L2, _SPATIAL, _L1 = 0, 1, 2, 3

#: Temporal levels in nest order (outermost first) with their factor slots.
_TEMPORAL_SLOTS: Tuple[Tuple[str, int], ...] = (("DRAM", _DRAM), ("L2", _L2), ("L1", _L1))

#: The temporal factor slots as an index vector, for vectorized gathers.
_LEVEL_SLOTS = np.asarray([slot for _, slot in _TEMPORAL_SLOTS], dtype=np.int64)


@dataclass(frozen=True)
class MappingBatch:
    """``N`` mappings over one problem, lowered to stacked arrays.

    Arrays are aligned with ``problem.dim_names`` on the dimension axis and
    with the mapping order on the batch axis.  ``nest_bounds`` /
    ``nest_dims`` describe the full concatenated temporal loop nest (DRAM
    loops, then L2, then L1 — each level in its mapping's loop order,
    outermost loop first): position ``p`` of row ``n`` is a loop over
    dimension index ``nest_dims[n, p]`` with bound ``nest_bounds[n, p]``.
    Bound-1 loops are *kept* in place (unlike the scalar
    :func:`~repro.costmodel.nest.build_nest`, which elides them): they
    multiply every product by 1, and the reuse kernels mask them out of
    relevance tests, which reproduces the elision semantics exactly while
    keeping the arrays rectangular.
    """

    problem: Problem
    tile_factors: np.ndarray  # (N, D, 4) int64
    nest_bounds: np.ndarray  # (N, 3D) float64, outermost position first
    nest_dims: np.ndarray  # (N, 3D) int64 dimension index per position
    spatial: np.ndarray  # (N,) float64 — PEs used per mapping

    def __len__(self) -> int:
        return self.tile_factors.shape[0]

    @property
    def n_dims(self) -> int:
        return self.tile_factors.shape[1]

    def level_extents(self, level: str) -> np.ndarray:
        """Per-dimension tile extents at ``level`` as an ``(N, D)`` array.

        Mirrors :meth:`repro.mapspace.mapping.Mapping.tile_extents`; the
        extra pseudo-level ``"union"`` is the union of all PEs' L1 tiles
        (L1 x spatial), the granularity L2 serves multicast reads at.
        """
        tf = self.tile_factors
        if level == "L1":
            return tf[:, :, _L1]
        if level == "union":
            return tf[:, :, _L1] * tf[:, :, _SPATIAL]
        if level == "L2":
            return tf[:, :, _L1] * tf[:, :, _SPATIAL] * tf[:, :, _L2]
        if level == "DRAM":
            return np.prod(tf, axis=2)
        raise KeyError(f"unknown level {level!r}")


def compile_batch(mappings: Sequence[Mapping], problem: Problem) -> MappingBatch:
    """Lower ``mappings`` into a :class:`MappingBatch` for ``problem``.

    Performs the scalar model's structural validation across the whole
    batch: every mapping's dims must match the problem's and every
    dimension's factors must multiply to its bound.  Raises ``ValueError``
    naming the first offender, like ``CostModel.evaluate`` does.
    """
    dims = problem.dim_names
    dim_index = {dim: i for i, dim in enumerate(dims)}
    n = len(mappings)
    n_dims = len(dims)

    for mapping in mappings:
        if mapping.dims != dims:
            raise ValueError(
                f"mapping dims {mapping.dims} do not match problem dims {dims}"
            )
    tile_factors = np.asarray(
        [mapping.tile_factors for mapping in mappings], dtype=np.int64
    ).reshape(n, n_dims, 4)
    order_index = np.asarray(
        [
            [[dim_index[dim] for dim in order] for order in mapping.loop_orders]
            for mapping in mappings
        ],
        dtype=np.int64,
    ).reshape(n, 3, n_dims)

    if n:
        implied = np.prod(tile_factors, axis=2)  # (N, D)
        bounds = np.asarray([d.bound for d in problem.dims], dtype=np.int64)
        bad = np.argwhere(implied != bounds[None, :])
        if bad.size:
            row, col = bad[0]
            raise ValueError(
                f"mapping factors of {dims[col]} multiply to {implied[row, col]}, "
                f"problem bound is {bounds[col]}"
            )

    # Concatenated temporal nest: per level, gather that level's factor slot
    # through the level's loop order, then stack levels outermost first.
    per_level = [
        np.take_along_axis(tile_factors[:, :, slot], order_index[:, l, :], axis=1)
        for l, (_, slot) in enumerate(_TEMPORAL_SLOTS)
    ]
    nest_bounds = np.concatenate(per_level, axis=1).astype(np.float64)
    nest_dims = np.concatenate([order_index[:, l, :] for l in range(3)], axis=1)
    spatial = np.prod(tile_factors[:, :, _SPATIAL], axis=1).astype(np.float64)
    return MappingBatch(
        problem=problem,
        tile_factors=tile_factors,
        nest_bounds=nest_bounds,
        nest_dims=nest_dims,
        spatial=spatial,
    )


class _AggregateStats:
    """Shared derived views over stacked access/energy arrays.

    Mixed into :class:`BatchCostStats` and :class:`MegaBatchCostStats`,
    which both carry ``accesses`` / ``access_energy_pj`` / ``noc_words`` /
    ``cycles`` arrays plus a ``mac_energy_pj`` (scalar for a homogeneous
    batch, per-lane vector for a megabatch — the formulas broadcast).  All
    reductions use explicit axes so zero-row batches stay well-formed:
    every derived property of an empty batch is ``(0,)``-shaped.
    """

    def __len__(self) -> int:
        return self.accesses.shape[0]

    @property
    def energies_pj(self) -> np.ndarray:
        """Per-(mapping, tensor, level) energy: ``accesses * access cost``."""
        return self.accesses * self.access_energy_pj[None, None, :]

    @property
    def memory_energy_pj(self) -> np.ndarray:
        return self.energies_pj.sum(axis=(1, 2))

    @property
    def noc_energy_pj(self) -> np.ndarray:
        return self.noc_words * self.noc_hop_pj

    @property
    def total_energy_pj(self) -> np.ndarray:
        return self.memory_energy_pj + self.noc_energy_pj + self.mac_energy_pj

    @property
    def energy_j(self) -> np.ndarray:
        return self.total_energy_pj * 1e-12

    @property
    def delay_s(self) -> np.ndarray:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def edp(self) -> np.ndarray:
        """Energy-delay products in joule-seconds, shape ``(N,)``."""
        return self.energy_j * self.delay_s

    def _check_index(self, index: int) -> None:
        """``stats_at`` contract: plain bounds, no negative wrap-around.

        Numpy's negative indexing would silently serve ``stats_at(-1)``
        from the last row while ``stats_at(N)`` raises — an out-of-contract
        index must never return a valid-looking row.
        """
        if not 0 <= index < len(self):
            raise IndexError(
                f"batch index {index} out of range for {len(self)} rows"
            )


@dataclass(frozen=True)
class BatchCostStats(_AggregateStats):
    """Vectorized evaluation result for ``N`` mappings of one problem.

    The batched analogue of :class:`~repro.costmodel.stats.CostStats`:
    ``accesses[n, t, l]`` is the word-access count of mapping ``n`` for the
    problem's ``t``-th tensor at memory level ``l`` (``MEMORY_LEVELS``
    order), and the remaining fields are ``(N,)`` vectors or constants
    shared by the whole batch.  Aggregates (energy, EDP) are derived
    properties, mirroring the scalar formulas elementwise.
    """

    problem_name: str
    tensor_names: Tuple[str, ...]
    accesses: np.ndarray  # (N, T, L) word accesses
    access_energy_pj: np.ndarray  # (L,) per-word access energy
    noc_words: np.ndarray  # (N,)
    noc_hop_pj: float
    mac_energy_pj: float  # identical across the batch (same problem)
    cycles: np.ndarray  # (N,)
    utilization: np.ndarray  # (N,)
    spatial_pes: np.ndarray  # (N,) int64
    clock_ghz: float = 1.0

    # ---- interop ---------------------------------------------------------

    def stats_at(self, index: int) -> CostStats:
        """Rebuild the full scalar :class:`CostStats` for one batch row.

        Raises ``IndexError`` unless ``0 <= index < len(self)``.
        """
        self._check_index(index)
        energies = self.energies_pj[index]
        records = tuple(
            TensorLevelEnergy(
                tensor=tensor,
                level=level,
                accesses=float(self.accesses[index, t, l]),
                energy_pj=float(energies[t, l]),
            )
            for t, tensor in enumerate(self.tensor_names)
            for l, level in enumerate(MEMORY_LEVELS)
        )
        return CostStats(
            problem_name=self.problem_name,
            records=records,
            noc_energy_pj=float(self.noc_energy_pj[index]),
            mac_energy_pj=float(self.mac_energy_pj),
            cycles=float(self.cycles[index]),
            utilization=float(self.utilization[index]),
            spatial_pes=int(self.spatial_pes[index]),
            clock_ghz=self.clock_ghz,
        )

    def meta_matrix(self, tensor_order: Sequence[str]) -> np.ndarray:
        """Stacked meta-statistics vectors, shape ``(N, 3T + 3)``.

        Row ``n`` equals ``stats_at(n).meta_vector(tensor_order)``: per-level
        energies for each tensor in ``tensor_order``, then total energy,
        utilization, cycles — the surrogate's training-target layout
        (:meth:`repro.costmodel.stats.CostStats.meta_vector`), built with
        column arithmetic instead of N Python calls.
        """
        name_to_index = {name: t for t, name in enumerate(self.tensor_names)}
        try:
            order = [name_to_index[name] for name in tensor_order]
        except KeyError as error:
            raise KeyError(
                f"tensor {error.args[0]!r} not in batch tensors {self.tensor_names}"
            ) from None
        energies = self.energies_pj[:, order, :]  # (N, T, L) reordered
        out = np.empty((len(self), 3 * len(order) + 3), dtype=np.float64)
        # Explicit column count: reshape(N, -1) cannot infer a width from a
        # zero-row array, and empty batches must stay well-formed.
        out[:, : 3 * len(order)] = energies.reshape(len(self), 3 * len(order))
        out[:, -3] = self.total_energy_pj
        out[:, -2] = self.utilization
        out[:, -1] = self.cycles
        return out


# ----------------------------------------------------------------------
# Reuse kernels
# ----------------------------------------------------------------------


def _fill_events(
    cumprod: np.ndarray, relevant: np.ndarray, prefix: int
) -> np.ndarray:
    """Vectorized :func:`repro.costmodel.nest.fill_events` over a batch.

    ``cumprod[n, p]`` is the running product of nest bounds through
    position ``p``; ``relevant[n, p]`` marks loops that both iterate
    (bound > 1) and touch the tensor.  The fill count is the cumulative
    product at the *last* relevant position — and because bounds are >= 1
    the cumulative product is non-decreasing along the nest, so that value
    is simply the masked maximum (1.0 when no loop above is relevant).
    """
    if prefix == 0:
        return np.ones(cumprod.shape[0], dtype=np.float64)
    masked = np.where(relevant[:, :prefix], cumprod[:, :prefix], 1.0)
    return masked.max(axis=1)


def _distinct_tiles(
    bounds: np.ndarray, relevant: np.ndarray, prefix: int
) -> np.ndarray:
    """Vectorized :func:`repro.costmodel.nest.distinct_tiles` over a batch:
    the product of relevant loop bounds above the storage level."""
    if prefix == 0:
        return np.ones(bounds.shape[0], dtype=np.float64)
    return np.where(relevant[:, :prefix], bounds[:, :prefix], 1.0).prod(axis=1)


def _footprints(
    tensor: TensorSpec, extents: np.ndarray, dim_index: Dict[str, int]
) -> np.ndarray:
    """Vectorized :meth:`TensorSpec.footprint` over ``(N, D)`` extents.

    Sliding-window axes like ``(X, R)`` add their extents and subtract the
    overlap (``x + r - 1`` positions), exactly as the scalar rule.
    """
    total = np.ones(extents.shape[0], dtype=np.float64)
    for axis in tensor.axes:
        span = np.full(extents.shape[0], -(len(axis) - 1), dtype=np.int64)
        for dim in axis:
            span = span + extents[:, dim_index[dim]]
        total = total * np.maximum(span, 1)
    return total


# ----------------------------------------------------------------------
# The batched kernels
# ----------------------------------------------------------------------


def evaluate_batch(
    accelerator: Accelerator, mappings: Sequence[Mapping], problem: Problem
) -> BatchCostStats:
    """Price ``mappings`` against ``problem`` in one vectorized pass.

    Produces per-tensor/per-level traffic, NoC words, cycles, utilization
    — everything the scalar :meth:`CostModel.evaluate` computes — as
    stacked arrays, with semantics identical to evaluating each mapping
    independently (see the parity suite).
    """
    batch = compile_batch(mappings, problem)
    return evaluate_compiled(accelerator, batch)


def evaluate_compiled(accelerator: Accelerator, batch: MappingBatch) -> BatchCostStats:
    """The traffic/energy/cycles kernels over an already-compiled batch."""
    problem = batch.problem
    n = len(batch)
    n_dims = batch.n_dims
    dims = problem.dim_names
    dim_index = {dim: i for i, dim in enumerate(dims)}
    tensors = problem.tensors
    n_tensors = len(tensors)

    bounds = batch.nest_bounds  # (N, 3D)
    cumprod = np.cumprod(bounds, axis=1) if n else bounds
    iterating = bounds > 1.0  # bound-1 loops are transparent to reuse
    spatial = batch.spatial
    spatial_factors = batch.tile_factors[:, :, _SPATIAL]  # (N, D)

    l1_extents = batch.level_extents("L1")
    union_extents = batch.level_extents("union")
    l2_extents = batch.level_extents("L2")

    #: Loops strictly outside each storage level, as nest-position prefixes:
    #: DRAM loops only (above L2), DRAM+L2 (above L1), all (above REG).
    above_l2, above_l1, above_reg = n_dims, 2 * n_dims, 3 * n_dims

    accesses = np.empty((n, n_tensors, len(MEMORY_LEVELS)), dtype=np.float64)
    noc_words = np.zeros(n, dtype=np.float64)
    for t, tensor in enumerate(tensors):
        relevant_dims = np.zeros(n_dims, dtype=bool)
        for dim in tensor.dims:
            relevant_dims[dim_index[dim]] = True
        relevant = relevant_dims[batch.nest_dims] & iterating  # (N, 3D)

        fp_l2 = _footprints(tensor, l2_extents, dim_index)
        fp_union = _footprints(tensor, union_extents, dim_index)

        if tensor.is_output:
            fp_l1 = _footprints(tensor, l1_extents, dim_index)
            installs = _fill_events(cumprod, relevant, above_l2)
            distinct = _distinct_tiles(bounds, relevant, above_l2)
            spills = installs - distinct
            dram_words = distinct * fp_l2 + 2.0 * spills * fp_l2

            installs_l1 = _fill_events(cumprod, relevant, above_l1)
            distinct_l1 = _distinct_tiles(bounds, relevant, above_l1)
            spills_l1 = installs_l1 - distinct_l1
            drains = installs_l1 * fp_union
            restores = spills_l1 * fp_union
            l2_words = dram_words + drains + restores

            reg_updates = _fill_events(cumprod, relevant, above_reg)
            l1_words = (
                2.0 * reg_updates * spatial
                + (installs_l1 + spills_l1) * fp_l1 * spatial
            )
            noc_words += (installs_l1 + spills_l1) * fp_l1 * spatial
            accesses[:, t, 0] = dram_words
            accesses[:, t, 1] = l2_words
            accesses[:, t, 2] = l1_words
        else:
            fills_l2 = _fill_events(cumprod, relevant, above_l2)
            dram_reads = fills_l2 * fp_l2

            fills_l1 = _fill_events(cumprod, relevant, above_l1)
            l2_reads = fills_l1 * fp_union  # multicast: unique words read once
            copies = np.where(relevant_dims[None, :], 1, spatial_factors).prod(axis=1)
            deliveries = fills_l1 * fp_union * copies

            reg_fills = _fill_events(cumprod, relevant, above_reg)
            l1_reads = reg_fills * spatial

            noc_words += deliveries
            accesses[:, t, 0] = dram_reads
            accesses[:, t, 1] = dram_reads + l2_reads  # fill writes + drains
            accesses[:, t, 2] = deliveries + l1_reads  # fills + compute reads

    # ---- cycles (max of compute-bound and bandwidth-bound counts) --------
    temporal_points = cumprod[:, -1] if n else np.ones(0)
    compute_cycles = temporal_points * problem.ops_per_point
    level_words = accesses.sum(axis=1)  # (N, L) summed over tensors
    dram_cycles = level_words[:, 0] / accelerator.bandwidth("DRAM")
    l2_cycles = level_words[:, 1] / accelerator.bandwidth("L2")
    per_pe_l1 = level_words[:, 2] / np.maximum(spatial, 1.0)
    l1_cycles = per_pe_l1 / accelerator.bandwidth("L1")
    cycles = np.maximum.reduce(
        [compute_cycles, dram_cycles, l2_cycles, l1_cycles, np.ones(n)]
    )
    ideal = problem.total_ops / accelerator.num_pes
    utilization = np.minimum(ideal / cycles, 1.0) if n else np.ones(0)

    access_energy = np.asarray(
        [accelerator.energy.access(level) for level in MEMORY_LEVELS],
        dtype=np.float64,
    )
    return BatchCostStats(
        problem_name=problem.name,
        tensor_names=tuple(tensor.name for tensor in tensors),
        accesses=accesses,
        access_energy_pj=access_energy,
        noc_words=noc_words,
        noc_hop_pj=accelerator.energy.noc_hop,
        mac_energy_pj=problem.total_ops * accelerator.energy.mac,
        cycles=cycles,
        utilization=utilization,
        spatial_pes=spatial.astype(np.int64),
        clock_ghz=accelerator.clock_ghz,
    )


def edp_batch(
    accelerator: Accelerator, mappings: Sequence[Mapping], problem: Problem
) -> np.ndarray:
    """``(N,)`` EDP vector — the batched form of ``CostModel.evaluate_edp``."""
    if not len(mappings):
        return np.empty(0, dtype=np.float64)
    return evaluate_batch(accelerator, mappings, problem).edp


# ----------------------------------------------------------------------
# Cross-problem megabatching
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ProblemTables:
    """Per-problem static lowering tables, shared by every lane of a problem.

    Everything the megabatch kernels need to know about a problem, in that
    problem's *own* sizes (``D`` dims, ``T`` tensors, ``A`` footprint axes):
    tensor relevance and output-role masks over the dim axis, and the
    sliding-window footprint axes as a linear *selection tensor*
    ``sel[t, a, :]`` — column ``d < D`` counts how many times dim ``d`` is a
    member of axis ``a`` and column ``D`` holds the scalar
    ``-(len(axis) - 1)`` overlap term, so an axis span is one dot product
    with the per-lane extents (augmented with a constant-1 column).  Sums
    of integer extents are exact in any order, which keeps the dot-product
    form bitwise identical to the scalar member-by-member sum.

    ``order_cache[padded_width]`` memoizes ``loop_orders`` keys to small
    integer *codes* into ``order_rows[padded_width]``, a growing list of
    flat dim-index rows already padded to the union's nest width;
    ``order_matrices`` caches each width's rows as one stacked matrix so a
    steady-state compile lowers orders with a single fancy-index gather
    instead of re-converting Python ints.  ``order_memo[padded_width]``
    fronts the equality cache with an identity map — re-evaluating a
    mapping (replay, prewarm hits priced again) re-presents the *same*
    ``loop_orders`` tuple object, whose code is then found by one int-key
    lookup instead of re-hashing a nested tuple of strings.  Entries pin
    the keyed tuple, so a memoized id can never be recycled to a different
    object.  Servers see the same orders over and over, and bounded caches
    keep a long-lived process from growing them without limit.
    """

    dim_index: Dict[str, int]
    bounds: np.ndarray  # (D,) int64 problem dimension bounds
    is_output: np.ndarray  # (T,) bool
    relevant: np.ndarray  # (T, D) bool
    sel: np.ndarray  # (T, A, D + 1) int64 axis-span selection tensor
    ops_per_point: float
    total_ops: float
    order_cache: Dict[int, Dict[Hashable, int]]
    order_rows: Dict[int, List[List[int]]]
    order_matrices: Dict[int, Tuple[int, np.ndarray]]
    order_memo: Dict[int, Dict[int, Tuple[Hashable, int]]]

    @property
    def n_dims(self) -> int:
        return self.bounds.shape[0]

    @property
    def n_tensors(self) -> int:
        return self.is_output.shape[0]

    def order_matrix(self, width: int) -> np.ndarray:
        """The stacked ``(n_rows, width)`` order-row matrix for ``width``.

        Rebuilt only when new rows were memoized since the last call; the
        steady state (serving the same orders repeatedly) is a dict hit.
        """
        rows = self.order_rows[width]
        cached = self.order_matrices.get(width)
        if cached is None or cached[0] != len(rows):
            cached = (len(rows), np.asarray(rows, dtype=np.int64))
            self.order_matrices[width] = cached
        return cached[1]


#: Memoized per-problem tables.  Keyed by the same identity the oracle
#: cache uses; values are immutable once built, so a benign double-build
#: race just produces an equal value (``setdefault`` keeps one winner).
_PROBLEM_TABLES: Dict[Hashable, _ProblemTables] = {}

#: Bound on each problem's loop-order memo; beyond this, rows are computed
#: without being stored (searchers can emit unboundedly many orders).
_ORDER_CACHE_LIMIT = 4096


def _problem_tables(problem: Problem, key: Hashable = None) -> _ProblemTables:
    if key is None:
        from repro.costmodel.cache import problem_key  # deferred: avoids cycle risk

        key = problem_key(problem)
    tables = _PROBLEM_TABLES.get(key)
    if tables is not None:
        return tables
    dims = problem.dim_names
    dim_index = {dim: i for i, dim in enumerate(dims)}
    tensors = problem.tensors
    n_dims = len(dims)
    n_tensors = len(tensors)
    n_axes = max((len(tensor.axes) for tensor in tensors), default=0)
    is_output = np.zeros(n_tensors, dtype=bool)
    relevant = np.zeros((n_tensors, n_dims), dtype=bool)
    sel = np.zeros((n_tensors, n_axes, n_dims + 1), dtype=np.int64)
    for t, tensor in enumerate(tensors):
        is_output[t] = tensor.is_output
        for dim in tensor.dims:
            relevant[t, dim_index[dim]] = True
        for a, axis in enumerate(tensor.axes):
            sel[t, a, n_dims] = -(len(axis) - 1)
            for dim in axis:
                sel[t, a, dim_index[dim]] += 1
    tables = _ProblemTables(
        dim_index=dim_index,
        bounds=np.asarray([d.bound for d in problem.dims], dtype=np.int64),
        is_output=is_output,
        relevant=relevant,
        sel=sel,
        ops_per_point=float(problem.ops_per_point),
        total_ops=float(problem.total_ops),
        order_cache={},
        order_rows={},
        order_matrices={},
        order_memo={},
    )
    return _PROBLEM_TABLES.setdefault(key, tables)


@dataclass(frozen=True)
class _SlotBlock:
    """Per-problem tables of one problem *set*, stacked and padded once.

    Everything in a :class:`MegaBatch` that depends only on which problems
    are in the union (not on the mappings): slot tables padded to the
    union's ``max(T)``/``max(D)``/``max(A)``/``max(M)`` and the padded
    dimension bounds used for factor validation.  Serving rounds reuse the
    same live problem set over and over, so these are memoized by the
    ordered tuple of problem keys.
    """

    n_dims: int  # Dmax over the set
    valid: np.ndarray  # (P, Tmax) bool
    is_output: np.ndarray  # (P, Tmax) bool
    relevant: np.ndarray  # (P, Tmax, Dmax) bool
    sel: np.ndarray  # (P, Tmax, Amax, Dmax + 1) float64, zero-padded
    bounds: np.ndarray  # (P, Dmax) int64, padded dims bound 1
    ops_per_point: np.ndarray  # (P,) float64
    total_ops: np.ndarray  # (P,) float64


#: Memoized slot blocks per ordered problem-set key (bounded; unseen sets
#: beyond the limit are built per call without being stored).
_SLOT_BLOCKS: Dict[Tuple[Hashable, ...], _SlotBlock] = {}
_SLOT_BLOCK_LIMIT = 128


def _slot_block(
    keys: Tuple[Hashable, ...], tables: Sequence[_ProblemTables]
) -> _SlotBlock:
    block = _SLOT_BLOCKS.get(keys)
    if block is not None:
        return block
    n_problems = len(tables)
    max_dims = max((t.n_dims for t in tables), default=0)
    max_slots = max((t.n_tensors for t in tables), default=0)
    max_axes = max((t.sel.shape[1] for t in tables), default=0)
    valid = np.zeros((n_problems, max_slots), dtype=bool)
    is_output = np.zeros((n_problems, max_slots), dtype=bool)
    relevant = np.zeros((n_problems, max_slots, max_dims), dtype=bool)
    # float64 so the footprint matmul needs no per-call cast; the counts
    # are small integers, exactly representable.
    sel = np.zeros((n_problems, max_slots, max_axes, max_dims + 1))
    bounds = np.ones((n_problems, max_dims), dtype=np.int64)
    ops_per_point = np.empty(n_problems, dtype=np.float64)
    total_ops = np.empty(n_problems, dtype=np.float64)
    for g, tab in enumerate(tables):
        t, d = tab.n_tensors, tab.n_dims
        a = tab.sel.shape[1]
        valid[g, :t] = True
        is_output[g, :t] = tab.is_output
        relevant[g, :t, :d] = tab.relevant
        # Dim-count columns keep their positions; the constant (overlap)
        # column moves to the padded constant slot.  Zero rows for padding
        # axes/slots give span 0, clamped to a multiplicative-identity 1.
        sel[g, :t, :a, :d] = tab.sel[:, :, :d]
        sel[g, :t, :a, max_dims] = tab.sel[:, :, d]
        bounds[g, :d] = tab.bounds
        ops_per_point[g] = tab.ops_per_point
        total_ops[g] = tab.total_ops
    block = _SlotBlock(
        n_dims=max_dims,
        valid=valid,
        is_output=is_output,
        relevant=relevant,
        sel=sel,
        bounds=bounds,
        ops_per_point=ops_per_point,
        total_ops=total_ops,
    )
    if len(_SLOT_BLOCKS) < _SLOT_BLOCK_LIMIT:
        return _SLOT_BLOCKS.setdefault(keys, block)
    return block


@dataclass(frozen=True)
class MegaBatch:
    """``N`` heterogeneous (mapping, problem) lanes as one rectangular set.

    The cross-problem analogue of :class:`MappingBatch`: the dim axis is
    padded to the union's ``max(D)`` with ``(1, 1, 1, 1)`` tile factors and
    the nest axis to ``3 * max(D)`` with bound-1 loops at the end of each
    level segment (semantically inert — the kernels mask bound-1 loops out
    of every relevance test, and they multiply every product by 1).
    Per-problem tensor tables are padded to the union's ``max(T)`` slots in
    each problem's *own tensor order* (``slot_valid`` masks the padding
    slots), which keeps every per-lane reduction ordered exactly as the
    homogeneous kernel orders it — megabatched statistics are bitwise
    identical to :func:`evaluate_batch` of the same lanes.

    Rows are stored *group-major* (all of problem 0's lanes, then problem
    1's, ...; within a group, input order) so per-problem lowering needs no
    scatter; ``lane_index[row]`` is the input lane a row came from, and the
    kernel restores input-lane order in the stats it returns.  Row ``r``
    belongs to ``problems[problem_idx[r]]``.
    """

    problems: Tuple[Problem, ...]  # distinct problems, first-appearance order
    problem_idx: np.ndarray  # (N,) int64 row -> problems index, group-major
    lane_index: np.ndarray  # (N,) int64 row -> input lane (a permutation)
    tile_factors: np.ndarray  # (N, Dmax, 4) int64, padded dims all-1
    nest_bounds: np.ndarray  # (N, 3*Dmax) float64, outermost first
    nest_dims: np.ndarray  # (N, 3*Dmax) int64
    spatial: np.ndarray  # (N,) float64
    slot_valid: np.ndarray  # (P, Tmax) bool
    slot_is_output: np.ndarray  # (P, Tmax) bool
    slot_relevant: np.ndarray  # (P, Tmax, Dmax) bool
    slot_sel: np.ndarray  # (P, Tmax, Amax, Dmax + 1) float64 span selectors
    ops_per_point: np.ndarray  # (P,) float64
    total_ops: np.ndarray  # (P,) float64

    def __len__(self) -> int:
        return self.tile_factors.shape[0]

    @property
    def n_dims(self) -> int:
        """The union's padded dimension count, ``max(D)`` over problems."""
        return self.tile_factors.shape[1]

    @property
    def n_slots(self) -> int:
        """The union's padded tensor-slot count, ``max(T)`` over problems."""
        return self.slot_valid.shape[1]

    def level_extents(self, level: str) -> np.ndarray:
        """Per-dimension tile extents at ``level``, ``(N, Dmax)`` (padding
        dims have extent 1 at every level)."""
        tf = self.tile_factors
        if level == "L1":
            return tf[:, :, _L1]
        if level == "union":
            return tf[:, :, _L1] * tf[:, :, _SPATIAL]
        if level == "L2":
            return tf[:, :, _L1] * tf[:, :, _SPATIAL] * tf[:, :, _L2]
        if level == "DRAM":
            return np.prod(tf, axis=2)
        raise KeyError(f"unknown level {level!r}")


def compile_megabatch(
    mappings: Sequence[Mapping], problems: Sequence[Problem]
) -> MegaBatch:
    """Lower aligned ``(mappings[i], problems[i])`` lanes into a :class:`MegaBatch`.

    ``problems`` may repeat freely (a serving round lists each lane's
    problem); distinct problems are deduplicated by cost identity
    (:func:`~repro.costmodel.cache.problem_key`) in first-appearance order.
    Validation matches :func:`compile_batch` per lane: mismatched dims or
    factor products raise ``ValueError`` naming the first offender.
    """
    from repro.costmodel.cache import problem_key

    mappings = list(mappings)
    problems = list(problems)
    if len(mappings) != len(problems):
        raise ValueError(
            f"megabatch lanes misaligned: {len(mappings)} mappings vs "
            f"{len(problems)} problems"
        )
    n = len(mappings)

    # Dedup lanes into distinct problems.  Serving rounds repeat the same
    # Problem *objects* lane after lane, so an identity memo short-circuits
    # the structural key for all but the first lane of each object; equal
    # problems behind different objects still merge through the key.
    distinct: List[Problem] = []
    keys: List[Hashable] = []
    group_of: Dict[Hashable, int] = {}
    group_by_id: Dict[int, int] = {}
    lane_groups: List[List[int]] = []
    prev: Optional[Problem] = None
    prev_group = -1
    for i, problem in enumerate(problems):
        if problem is prev:  # serving rounds come in per-problem runs
            lane_groups[prev_group].append(i)
            continue
        g = group_by_id.get(id(problem))
        if g is None:
            key = problem_key(problem)
            g = group_of.get(key)
            if g is None:
                g = len(distinct)
                group_of[key] = g
                keys.append(key)
                distinct.append(problem)
                lane_groups.append([])
            group_by_id[id(problem)] = g
        prev = problem
        prev_group = g
        lane_groups[g].append(i)

    tables = [
        _problem_tables(problem, key) for problem, key in zip(distinct, keys)
    ]
    block = _slot_block(tuple(keys), tables)
    max_dims = block.n_dims

    # Group-major rows: lower each problem's lanes contiguously.  Tile rows
    # land in a ones-filled (N, Dmax, 4) array (padding dims keep factor 1
    # at every level) through one ``np.array`` per group; memoized
    # order rows are stored already padded (padding positions name the
    # problem's first padding dim, whose factors are all 1, so the
    # nest-bound gather below reads bound 1 for them without a second
    # pass).
    lane_index = np.asarray(
        [i for group in lane_groups for i in group], dtype=np.int64
    )
    problem_idx = np.repeat(
        np.arange(len(distinct), dtype=np.int64),
        [len(group) for group in lane_groups],
    )
    width = 3 * max_dims
    tile_factors = np.ones((n, max_dims, 4), dtype=np.int64)
    overflow_rows: List[List[int]] = []
    nest_dims = np.empty((n, width), dtype=np.int64)
    row_start = 0
    for g, (problem, tab) in enumerate(zip(distinct, tables)):
        dims = problem.dim_names
        d = tab.n_dims
        pad_order = [d] * (max_dims - d)
        dim_index = tab.dim_index
        cache = tab.order_cache.setdefault(max_dims, {})
        memo = tab.order_memo.setdefault(max_dims, {})
        rows = tab.order_rows.setdefault(max_dims, [])
        tile_rows: List[Tuple[Tuple[int, ...], ...]] = []
        codes: List[int] = []
        for i in lane_groups[g]:
            mapping = mappings[i]
            if mapping.dims != dims:
                raise ValueError(
                    f"mapping dims {mapping.dims} do not match problem dims {dims}"
                )
            tile_rows.append(mapping.tile_factors)
            orders = mapping.loop_orders
            entry = memo.get(id(orders))
            if entry is not None and entry[0] is orders:
                codes.append(entry[1])
                continue
            code = cache.get(orders)
            if code is None:
                row: List[int] = []
                for order in orders:
                    row.extend(dim_index[dim] for dim in order)
                    row.extend(pad_order)
                if len(cache) < _ORDER_CACHE_LIMIT:
                    code = len(rows)
                    rows.append(row)
                    cache[orders] = code
                else:  # memo full: lower this lane without storing the row
                    code = -1 - len(overflow_rows)
                    overflow_rows.append(row)
            if code >= 0 and len(memo) < _ORDER_CACHE_LIMIT:
                memo[id(orders)] = (orders, code)
            codes.append(code)
        row_end = row_start + len(codes)
        tile_factors[row_start:row_end, :d, :] = np.array(tile_rows, dtype=np.int64)
        code_arr = np.fromiter(codes, dtype=np.int64, count=len(codes))
        if overflow_rows:
            cached_mask = code_arr >= 0
            group_nest = np.empty((len(codes), width), dtype=np.int64)
            if cached_mask.any():
                group_nest[cached_mask] = tab.order_matrix(max_dims)[
                    code_arr[cached_mask]
                ]
            group_nest[~cached_mask] = np.asarray(
                [overflow_rows[-1 - c] for c in codes if c < 0], dtype=np.int64
            )
            nest_dims[row_start:row_end] = group_nest
            overflow_rows.clear()
        else:
            nest_dims[row_start:row_end] = tab.order_matrix(max_dims)[code_arr]
        row_start = row_end

    if n:
        implied = tile_factors.prod(axis=2)  # (N, Dmax)
        expected = block.bounds[problem_idx]
        mismatch = implied != expected
        if mismatch.any():
            bad = np.argwhere(mismatch)
            first = bad[np.argsort(lane_index[bad[:, 0]], kind="stable")[0]]
            row_i, col = int(first[0]), int(first[1])
            dims = distinct[int(problem_idx[row_i])].dim_names
            raise ValueError(
                f"mapping factors of {dims[col]} multiply to {implied[row_i, col]}, "
                f"problem bound is {expected[row_i, col]}"
            )

    # One flat gather builds the concatenated temporal nest: level ``l`` of
    # row ``r`` reads factor slot ``_TEMPORAL_SLOTS[l]`` through that
    # level's loop order (padding positions read a padding dim, factor 1).
    slot_offsets = np.repeat(_LEVEL_SLOTS, max_dims)[None, :]
    flat = nest_dims * 4 + slot_offsets + (np.arange(n) * (max_dims * 4))[:, None]
    nest_bounds = tile_factors.ravel().take(flat).astype(np.float64)
    spatial = tile_factors[:, :, _SPATIAL].prod(axis=1).astype(np.float64)

    return MegaBatch(
        problems=tuple(distinct),
        problem_idx=problem_idx,
        lane_index=lane_index,
        tile_factors=tile_factors,
        nest_bounds=nest_bounds,
        nest_dims=nest_dims,
        spatial=spatial,
        slot_valid=block.valid,
        slot_is_output=block.is_output,
        slot_relevant=block.relevant,
        slot_sel=block.sel,
        ops_per_point=block.ops_per_point,
        total_ops=block.total_ops,
    )


@dataclass(frozen=True)
class MegaBatchCostStats:
    """Vectorized evaluation result for heterogeneous (mapping, problem) lanes.

    Same layout as :class:`BatchCostStats` with a problem axis folded in:
    ``accesses[n, t, l]`` is lane ``n``'s word-access count for its
    problem's ``t``-th tensor (the problem's own tensor order; slots past
    the lane's tensor count are zero), and per-problem constants are
    gathered per lane through ``problem_idx``.  ``problem_slice`` carves
    one problem's lanes back out as a genuine :class:`BatchCostStats` —
    bitwise identical to evaluating those lanes homogeneously.

    Storage is *group-major* (``row_*`` fields, all of one problem's lanes
    contiguous, matching the compiled :class:`MegaBatch` rows); the public
    per-lane views (``accesses``, ``cycles``, ``edp``, ...) permute rows
    back to input-lane order on first use and are cached.  Row values are
    row-exact, so the permutation is pure reordering — it cannot perturb
    any value — while the hot consumers (``problem_slice`` for per-problem
    lowering, ``edp`` for pricing) stay one contiguous slice or one final
    ``(N,)`` permutation instead of an eager full scatter.
    """

    problems: Tuple[Problem, ...]
    lane_index: np.ndarray  # (N,) int64 row -> input lane (a permutation)
    row_problem_idx: np.ndarray  # (N,) int64, group-major (nondecreasing)
    row_accesses: np.ndarray  # (N, Tmax, L), zero-padded slots
    access_energy_pj: np.ndarray  # (L,)
    row_noc_words: np.ndarray  # (N,)
    noc_hop_pj: float
    mac_by_problem: np.ndarray  # (P,) per-problem MAC energy in pJ
    row_cycles: np.ndarray  # (N,)
    row_utilization: np.ndarray  # (N,)
    row_spatial_pes: np.ndarray  # (N,) int64
    clock_ghz: float = 1.0

    def __len__(self) -> int:
        return self.row_accesses.shape[0]

    def _lanes(self, rows: np.ndarray) -> np.ndarray:
        """Permute group-major ``rows`` back to input-lane order."""
        out = np.empty_like(rows)
        out[self.lane_index] = rows
        return out

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self):
            raise IndexError(
                f"batch index {index} out of range for {len(self)} rows"
            )

    @cached_property
    def _row_of_lane(self) -> np.ndarray:
        """Inverse permutation: input lane -> group-major row."""
        rows = np.empty(len(self), dtype=np.int64)
        rows[self.lane_index] = np.arange(len(self), dtype=np.int64)
        return rows

    # -- public per-lane views (cached, input-lane order) ------------------

    @cached_property
    def problem_idx(self) -> np.ndarray:
        """Lane ``n``'s index into :attr:`problems`, ``(N,)``."""
        return self._lanes(self.row_problem_idx)

    @cached_property
    def accesses(self) -> np.ndarray:
        return self._lanes(self.row_accesses)

    @cached_property
    def noc_words(self) -> np.ndarray:
        return self._lanes(self.row_noc_words)

    @cached_property
    def cycles(self) -> np.ndarray:
        return self._lanes(self.row_cycles)

    @cached_property
    def utilization(self) -> np.ndarray:
        return self._lanes(self.row_utilization)

    @cached_property
    def spatial_pes(self) -> np.ndarray:
        return self._lanes(self.row_spatial_pes)

    @cached_property
    def mac_energy_pj(self) -> np.ndarray:
        """Per-lane MAC energy, gathered from the lane's problem, ``(N,)``."""
        return self.mac_by_problem[self.problem_idx]

    # -- aggregates (same formulas/operation order as _AggregateStats, -----
    # -- computed row-major and permuted at the end) -----------------------

    @cached_property
    def _row_energies_pj(self) -> np.ndarray:
        return self.row_accesses * self.access_energy_pj

    @cached_property
    def _row_total_energy_pj(self) -> np.ndarray:
        memory = self._row_energies_pj.sum(axis=(1, 2))
        noc = self.row_noc_words * self.noc_hop_pj
        return memory + noc + self.mac_by_problem[self.row_problem_idx]

    @cached_property
    def energies_pj(self) -> np.ndarray:
        return self._lanes(self._row_energies_pj)

    @cached_property
    def memory_energy_pj(self) -> np.ndarray:
        return self._lanes(self._row_energies_pj.sum(axis=(1, 2)))

    @cached_property
    def noc_energy_pj(self) -> np.ndarray:
        return self._lanes(self.row_noc_words * self.noc_hop_pj)

    @cached_property
    def total_energy_pj(self) -> np.ndarray:
        return self._lanes(self._row_total_energy_pj)

    @cached_property
    def energy_j(self) -> np.ndarray:
        return self._lanes(self._row_total_energy_pj * 1e-12)

    @cached_property
    def delay_s(self) -> np.ndarray:
        return self._lanes(self.row_cycles / (self.clock_ghz * 1e9))

    @cached_property
    def edp(self) -> np.ndarray:
        energy_j = self._row_total_energy_pj * 1e-12
        delay_s = self.row_cycles / (self.clock_ghz * 1e9)
        return self._lanes(energy_j * delay_s)

    # -- per-problem / per-lane carve-outs ---------------------------------

    def _group_rows(self, group: int) -> slice:
        """The contiguous group-major row range of ``problems[group]``."""
        start = int(np.searchsorted(self.row_problem_idx, group, side="left"))
        stop = int(np.searchsorted(self.row_problem_idx, group, side="right"))
        return slice(start, stop)

    def problem_lanes(self, group: int) -> np.ndarray:
        """Lane indices belonging to ``problems[group]``, in lane order."""
        return np.sort(self.lane_index[self._group_rows(group)])

    def problem_slice(self, group: int) -> BatchCostStats:
        """One problem's lanes as a homogeneous :class:`BatchCostStats`.

        Rows follow :meth:`problem_lanes` order (the group's input-lane
        order, which group-major storage keeps contiguous); slots are
        trimmed to the problem's tensor count.  Values are bitwise
        identical to :func:`evaluate_batch` over the same lanes, so
        downstream consumers of homogeneous batches (replay-buffer labels,
        meta matrices) cannot tell the difference.
        """
        problem = self.problems[group]
        rows = self._group_rows(group)
        n_tensors = len(problem.tensors)
        return BatchCostStats(
            problem_name=problem.name,
            tensor_names=tuple(tensor.name for tensor in problem.tensors),
            accesses=self.row_accesses[rows, :n_tensors, :],
            access_energy_pj=self.access_energy_pj,
            noc_words=self.row_noc_words[rows],
            noc_hop_pj=self.noc_hop_pj,
            mac_energy_pj=float(self.mac_by_problem[group]),
            cycles=self.row_cycles[rows],
            utilization=self.row_utilization[rows],
            spatial_pes=self.row_spatial_pes[rows],
            clock_ghz=self.clock_ghz,
        )

    def stats_at(self, index: int) -> CostStats:
        """Rebuild the full scalar :class:`CostStats` for one lane.

        Raises ``IndexError`` unless ``0 <= index < len(self)``.
        """
        self._check_index(index)
        row = int(self._row_of_lane[index])
        group = int(self.row_problem_idx[row])
        problem = self.problems[group]
        energies = self._row_energies_pj[row]
        records = tuple(
            TensorLevelEnergy(
                tensor=tensor.name,
                level=level,
                accesses=float(self.row_accesses[row, t, l]),
                energy_pj=float(energies[t, l]),
            )
            for t, tensor in enumerate(problem.tensors)
            for l, level in enumerate(MEMORY_LEVELS)
        )
        return CostStats(
            problem_name=problem.name,
            records=records,
            noc_energy_pj=float(self.row_noc_words[row] * self.noc_hop_pj),
            mac_energy_pj=float(self.mac_by_problem[group]),
            cycles=float(self.row_cycles[row]),
            utilization=float(self.row_utilization[row]),
            spatial_pes=int(self.row_spatial_pes[row]),
            clock_ghz=self.clock_ghz,
        )


#: Widest nest (3 * Dmax) the bit-packed fills position recovery handles:
#: packed position words must fit the float64 mantissa to stay exact.
#: Wider nests take the direct masked-position fallback (bitwise identical,
#: just slower); tests force the fallback by monkeypatching this to 0.
_BITPACK_MAX_WIDTH = 53


def _slot_footprints(
    extents3: np.ndarray, sel: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_footprints` vectorized over tensor slots *and* levels.

    ``extents3`` stacks the per-level tile extents ``(3, N, Dmax)``;
    ``sel[n, t, a, :]`` is the lane's axis-span selection row — dim-extent
    counts in columns ``:Dmax`` plus the scalar overlap term in the
    constant column — so every span is one dot product with the extents
    augmented by a constant-1 column, here one batched matmul against all
    three levels at once.  Zero rows (padding axes and slots) give span 0,
    clamped to a multiplicative-identity 1.  Spans are integer-valued and
    below 2**53, so the float64 dot products are exact — bitwise the same
    values as the scalar member-by-member integer sums.  Returns the
    ``(N, T)`` footprints at (L2, union, L1).
    """
    n, d = extents3.shape[1], extents3.shape[2]
    t, a = sel.shape[1], sel.shape[2]
    ext = np.empty((n, d + 1, 3))
    ext[:, :d, :] = extents3.transpose(1, 2, 0)
    ext[:, d, :] = 1.0
    span = np.matmul(sel.reshape(n, t * a, d + 1), ext)  # (N, T*A, 3)
    fp = np.maximum(span, 1.0).reshape(n, t, a, 3).prod(axis=2)  # (N, T, 3)
    return fp[:, :, 0], fp[:, :, 1], fp[:, :, 2]


def evaluate_megabatch(
    accelerator: Accelerator,
    mappings: Sequence[Mapping],
    problems: Sequence[Problem],
) -> MegaBatchCostStats:
    """Price heterogeneous ``(mappings[i], problems[i])`` lanes in one pass.

    The cross-problem form of :func:`evaluate_batch`: one compile, one run
    of the traffic/energy/cycles kernels over the whole union, however
    many distinct problems the lanes span.  Per-lane results are bitwise
    identical to evaluating each problem's slice homogeneously.
    """
    return evaluate_mega_compiled(accelerator, compile_megabatch(mappings, problems))


def evaluate_mega_compiled(
    accelerator: Accelerator, mega: MegaBatch
) -> MegaBatchCostStats:
    """The megabatch kernels over an already-compiled :class:`MegaBatch`.

    Runs the same fill/reuse/traffic formulas as :func:`evaluate_compiled`
    but vectorized over the tensor-slot axis too: both the output-tensor
    and operand kernels are computed for every slot and selected by the
    per-lane output-role mask (the wide-with-masks idiom — lanes never
    branch).  Invalid padding slots are masked to zero traffic, which
    keeps every cross-slot sum exact.  The compiled rows are group-major
    and the returned stats keep that layout, restoring input-lane order
    lazily through ``lane_index`` (a pure row permutation), so
    ``stats.problem_idx`` and every public per-lane array align with the
    lanes the megabatch was compiled from.
    """
    n = len(mega)
    n_dims = mega.n_dims
    n_slots = mega.n_slots
    access_energy = np.asarray(
        [accelerator.energy.access(level) for level in MEMORY_LEVELS],
        dtype=np.float64,
    )
    mac_by_problem = mega.total_ops * accelerator.energy.mac
    if not n:
        return MegaBatchCostStats(
            problems=mega.problems,
            lane_index=np.empty(0, dtype=np.int64),
            row_problem_idx=np.empty(0, dtype=np.int64),
            row_accesses=np.empty((0, n_slots, len(MEMORY_LEVELS))),
            access_energy_pj=access_energy,
            row_noc_words=np.empty(0),
            noc_hop_pj=accelerator.energy.noc_hop,
            mac_by_problem=mac_by_problem,
            row_cycles=np.empty(0),
            row_utilization=np.empty(0),
            row_spatial_pes=np.empty(0, dtype=np.int64),
            clock_ghz=accelerator.clock_ghz,
        )
    rg = mega.problem_idx  # (N,) row -> problem group, group-major

    bounds = mega.nest_bounds  # (N, 3Dmax)
    cumprod = np.cumprod(bounds, axis=1)
    iterating = bounds > 1.0
    spatial = mega.spatial
    spatial_col = spatial[:, None]
    tf = mega.tile_factors
    spatial_factors = tf[:, :, _SPATIAL]  # (N, Dmax)
    width = 3 * n_dims

    # Tile extents per level, stacked (L2, union, L1) for one footprint pass.
    l1_extents = tf[:, :, _L1]
    union_extents = l1_extents * spatial_factors
    l2_extents = union_extents * tf[:, :, _L2]
    extents3 = np.stack([l2_extents, union_extents, l1_extents])

    # Per-lane slot tables (gathered once; every kernel below reuses them).
    valid = mega.slot_valid[rg]  # (N, T)
    is_output = mega.slot_is_output[rg]  # (N, T)
    relevant_dims = mega.slot_relevant[rg]  # (N, T, Dmax)

    rng = np.arange(n)
    fp_l2, fp_union, fp_l1 = _slot_footprints(extents3, mega.slot_sel[rg])

    # Fill events at each level: running bound product at the innermost
    # relevant loop above it.  The running product is nondecreasing (every
    # bound is >= 1), so the masked maximum over a nest prefix is exactly
    # the cumprod *element* at the prefix's last relevant iterating
    # position — find that position, then one gather reads the identical
    # float64 value bitwise.
    if width <= _BITPACK_MAX_WIDTH:
        # Bit-packed position recovery: scatter ``2.0 ** position`` into
        # each iterating loop's dim slot, sum a slot's relevant dims
        # (positions are distinct so the sum sets disjoint bits, no
        # carries), and the highest set bit — floor(log2) — is the last
        # relevant iterating position.  Power-of-two sums below 2**53 are
        # exact in float64, which lets the per-slot reduction run as one
        # batched matmul; wider nests take the direct masked-position
        # reduction below.
        bits = np.where(
            iterating, np.ldexp(1.0, np.arange(width))[None, :], 0.0
        ).reshape(n, 3, n_dims)
        bit_by_dim = np.zeros((n, 3, n_dims))
        np.put_along_axis(
            bit_by_dim, mega.nest_dims.reshape(n, 3, n_dims), bits, axis=2
        )
        sums = np.matmul(
            relevant_dims.astype(np.float64), bit_by_dim.transpose(0, 2, 1)
        )  # (N, T, 3) packed positions per level segment
        pos = np.where(
            sums > 0,
            np.log2(np.maximum(sums, 1.0)).astype(np.int64),
            np.int64(-1),
        )
        pos = np.maximum.accumulate(pos, axis=2)  # prefixes of segments
        gathered = cumprod.ravel().take(
            np.maximum(pos, 0) + (rng * width)[:, None, None]
        )
        fills3 = np.where(pos >= 0, gathered, 1.0)  # (N, T, 3)
        fills_l2 = fills3[:, :, 0]
        fills_l1 = fills3[:, :, 1]
        fills_reg = fills3[:, :, 2]
    else:
        rel_by_dim = np.ascontiguousarray(
            relevant_dims.transpose(0, 2, 1)
        ).reshape(n * n_dims, n_slots)
        rel_nest = np.take(
            rel_by_dim, mega.nest_dims + (rng * n_dims)[:, None], axis=0
        )
        rel_nest &= iterating[:, :, None]  # (N, 3Dmax, T)
        nest_pos = np.arange(1, width + 1, dtype=np.int64)  # 1-based; 0 = none
        last_rel = (
            (rel_nest * nest_pos[None, :, None])
            .reshape(n, 3, n_dims, n_slots)
            .max(axis=2)
        )  # (N, 3, T) last relevant 1-based position per level segment
        last_rel = np.maximum.accumulate(last_rel, axis=1)
        pos = last_rel - 1
        gathered = cumprod.ravel().take(
            np.maximum(pos, 0) + (rng * width)[:, None, None]
        )
        fills3 = np.where(pos >= 0, gathered, 1.0)  # (N, 3, T)
        fills_l2 = fills3[:, 0, :]
        fills_l1 = fills3[:, 1, :]
        fills_reg = fills3[:, 2, :]

    # Distinct tiles: product of relevant bounds above the level — exactly
    # the relevant DRAM (resp. DRAM*L2) tile factors, one per dim, so the
    # segment reduction collapses to per-dim integer products.  Factor
    # products stay below 2**53, hence exact in any order and bitwise
    # identical to the homogeneous masked float product.
    distinct_l2 = (
        np.where(relevant_dims, tf[:, None, :, _DRAM], 1)
        .prod(axis=2)
        .astype(np.float64)
    )
    distinct_l1 = distinct_l2 * np.where(
        relevant_dims, tf[:, None, :, _L2], 1
    ).prod(axis=2)

    # Output-role kernel (partial-sum spills), every slot.
    spills = fills_l2 - distinct_l2
    spills_l1 = fills_l1 - distinct_l1
    out_dram = distinct_l2 * fp_l2 + 2.0 * spills * fp_l2
    drains = fills_l1 * fp_union  # == the operand kernel's L2 reads
    restores = spills_l1 * fp_union
    out_l2 = out_dram + drains + restores
    out_noc = (fills_l1 + spills_l1) * fp_l1 * spatial_col
    out_l1 = 2.0 * fills_reg * spatial_col + out_noc

    # Operand kernel (multicast fills), every slot.
    in_dram = fills_l2 * fp_l2
    copies = np.where(relevant_dims, 1, spatial_factors[:, None, :]).prod(axis=2)
    deliveries = drains * copies
    in_l2 = in_dram + drains
    in_l1 = deliveries + fills_reg * spatial_col

    accesses = np.empty((n, n_slots, len(MEMORY_LEVELS)), dtype=np.float64)
    accesses[:, :, 0] = np.where(valid, np.where(is_output, out_dram, in_dram), 0.0)
    accesses[:, :, 1] = np.where(valid, np.where(is_output, out_l2, in_l2), 0.0)
    accesses[:, :, 2] = np.where(valid, np.where(is_output, out_l1, in_l1), 0.0)
    noc_words = np.where(valid, np.where(is_output, out_noc, deliveries), 0.0).sum(
        axis=1
    )

    # ---- cycles (max of compute-bound and bandwidth-bound counts) --------
    temporal_points = cumprod[:, -1]
    compute_cycles = temporal_points * mega.ops_per_point[rg]
    level_words = accesses.sum(axis=1)  # (N, L) summed over slots
    dram_cycles = level_words[:, 0] / accelerator.bandwidth("DRAM")
    l2_cycles = level_words[:, 1] / accelerator.bandwidth("L2")
    per_pe_l1 = level_words[:, 2] / np.maximum(spatial, 1.0)
    l1_cycles = per_pe_l1 / accelerator.bandwidth("L1")
    cycles = np.maximum.reduce(
        [compute_cycles, dram_cycles, l2_cycles, l1_cycles, np.ones(n)]
    )
    ideal = mega.total_ops[rg] / accelerator.num_pes
    utilization = np.minimum(ideal / cycles, 1.0)

    return MegaBatchCostStats(
        problems=mega.problems,
        lane_index=mega.lane_index,
        row_problem_idx=rg,
        row_accesses=accesses,
        access_energy_pj=access_energy,
        row_noc_words=noc_words,
        noc_hop_pj=accelerator.energy.noc_hop,
        mac_by_problem=mac_by_problem,
        row_cycles=cycles,
        row_utilization=utilization,
        row_spatial_pes=spatial.astype(np.int64),
        clock_ghz=accelerator.clock_ghz,
    )


def megabatch_shape_stats(problems: Sequence[Problem]) -> Dict[str, object]:
    """Cheap kernel-shape counters for a prospective megabatch union.

    Pure bookkeeping over the lanes' problem shapes — no numpy, no
    compile — so the observability layer can attach per-round kernel
    attributes (lane count, union width, padding waste) to its trace
    spans without paying for :func:`compile_megabatch`.

    ``padding_waste_ratio`` is the fraction of padded per-lane cells that
    hold inert padding rather than real loops/slots: lanes are padded to
    ``union_dims`` dimensions and ``union_slots`` tensor slots (the
    rectangular union :func:`compile_megabatch` lowers to), so a
    homogeneous union wastes 0.0 and a union mixing narrow lanes into a
    wide rectangle approaches the fraction of cells that are bound-1 /
    invalid-slot filler.
    """
    if not problems:
        return {
            "lanes": 0,
            "problems": 0,
            "union_dims": 0,
            "union_slots": 0,
            "padding_waste_ratio": 0.0,
        }
    dim_counts = [len(problem.dims) for problem in problems]
    slot_counts = [len(problem.tensors) for problem in problems]
    union_dims = max(dim_counts)
    union_slots = max(slot_counts)
    distinct = len({id(problem) for problem in problems})
    used = sum(dim_counts) + sum(slot_counts)
    padded = len(problems) * (union_dims + union_slots)
    return {
        "lanes": len(problems),
        "problems": distinct,
        "union_dims": union_dims,
        "union_slots": union_slots,
        "padding_waste_ratio": 1.0 - used / padded if padded else 0.0,
    }


__all__ = [
    "BatchCostStats",
    "MappingBatch",
    "MegaBatch",
    "MegaBatchCostStats",
    "compile_batch",
    "compile_megabatch",
    "edp_batch",
    "evaluate_batch",
    "evaluate_compiled",
    "evaluate_megabatch",
    "evaluate_mega_compiled",
    "megabatch_shape_stats",
]
