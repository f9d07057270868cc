"""Vectorized batched analytical cost model: one kernel for every batch.

The scalar :class:`~repro.costmodel.model.CostModel` prices one mapping at a
time: it builds a :class:`~repro.costmodel.nest.LoopNest` of Python objects,
walks it per tensor for the Timeloop-style temporal-reuse products, and
assembles a :class:`~repro.costmodel.stats.CostStats`.  Every batched caller
— Phase 1 training-set generation, the ask/tell baselines' generation
scoring, :class:`~repro.costmodel.cache.CachedOracle` miss batches, serving
rounds, harness trace re-scoring — prices *populations* of mappings, so
this module amortizes the analysis across the population instead:

1. :func:`compile_megabatch` lowers ``N`` (mapping, problem) lanes into one
   rectangular array set — per-level tile factors ``(N, Dmax, 4)``, the
   concatenated temporal loop nest as aligned bound/dimension matrices
   ``(N, 3 * Dmax)`` (outermost position first), spatial sizes, and
   per-problem tensor tables gathered per lane — with the same structural
   validation as ``CostModel._check_structure``.  It keeps no per-mapping
   state: only per-problem tables and per-problem-set slot blocks, both
   bounded by the problems served, are memoized.
2. :func:`evaluate_mega_compiled` runs the traffic/energy/cycles kernels
   over those arrays: fill/reuse products from the running bound product
   along the nest axis, footprints and multicast copies over the dim axis,
   then the exact scalar traffic formulas applied elementwise.

:func:`evaluate_megabatch` is the two in sequence, returning a
:class:`MegaBatchCostStats`.  :func:`evaluate_batch` — ``N`` mappings of
one problem — is its one-group case, ``problem_slice(0)`` of the result: a
:class:`BatchCostStats` holding per-(mapping, tensor, level) access counts
and ``(N,)`` energy/cycles/utilization/EDP vectors, enough to rebuild any
row's full :class:`CostStats` (:meth:`BatchCostStats.stats_at`) and to
build the surrogate's meta-statistics targets without a per-row Python
loop (:meth:`BatchCostStats.meta_matrix`).

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

Lanes of different problems share one kernel pass through the
wide-with-masks idiom: the dimension axis is padded to ``max(D)`` with
``(1, 1, 1, 1)`` tile factors and the nest axis to ``3 * max(D)`` with
bound-1 loops (inert by the same elision masking), while everything
per-problem — tensor relevance, sliding-window footprint axes, output
roles, ops per point — lives in per-problem tables gathered per lane
through ``problem_idx``.  The kernels run *once* over the union,
vectorized over the tensor-slot axis as well, with invalid (padding)
slots masked to zero traffic.  Every lane's arithmetic is ordered the same
whatever its batchmates, and padding only ever multiplies by 1.0 or adds
0.0, so a lane's statistics are **bitwise independent** of which lanes
and problems share its megabatch — which is what lets the serving layer
union a whole round across all live problems into a single kernel call
without perturbing any response.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.accelerator import Accelerator, MEMORY_LEVELS
from repro.costmodel.stats import CostStats, TensorLevelEnergy
from repro.mapspace.mapping import Mapping
from repro.workloads.problem import Problem

#: Tile-factor slot indices within a mapping's per-dimension factor tuple.
_DRAM, _L2, _SPATIAL, _L1 = 0, 1, 2, 3

#: Temporal levels in nest order (outermost first) with their factor slots.
_TEMPORAL_SLOTS: Tuple[Tuple[str, int], ...] = (("DRAM", _DRAM), ("L2", _L2), ("L1", _L1))

#: The temporal factor slots as an index vector, for vectorized gathers.
_LEVEL_SLOTS = np.asarray([slot for _, slot in _TEMPORAL_SLOTS], dtype=np.int64)


def _check_row(index: int, rows: int) -> None:
    """``stats_at`` contract: plain bounds, no negative wrap-around.

    Numpy's negative indexing would silently serve ``stats_at(-1)`` from
    the last row while ``stats_at(N)`` raises — an out-of-contract index
    must never return a valid-looking row.
    """
    if not 0 <= index < rows:
        raise IndexError(f"batch index {index} out of range for {rows} rows")


def _access_energy(accelerator: Accelerator) -> np.ndarray:
    """Per-word access energy at each of ``MEMORY_LEVELS``, ``(L,)``."""
    return np.asarray(
        [accelerator.energy.access(level) for level in MEMORY_LEVELS],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class BatchCostStats:
    """Vectorized evaluation result for ``N`` mappings of one problem.

    What :meth:`MegaBatchCostStats.problem_slice` returns, and therefore
    what :func:`evaluate_batch` returns.  The batched analogue of
    :class:`~repro.costmodel.stats.CostStats`: ``accesses[n, t, l]`` is the
    word-access count of mapping ``n`` for the problem's ``t``-th tensor at
    memory level ``l`` (``MEMORY_LEVELS`` order), and the remaining fields
    are ``(N,)`` vectors or constants shared by the whole batch.
    Aggregates (energy, EDP) are derived properties, mirroring the scalar
    formulas elementwise.  All reductions use explicit axes so zero-row
    batches stay well-formed: every derived property of an empty batch is
    ``(0,)``-shaped.
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

    # ---- interop ---------------------------------------------------------

    def stats_at(self, index: int) -> CostStats:
        """Rebuild the full scalar :class:`CostStats` for one batch row.

        Raises ``IndexError`` unless ``0 <= index < len(self)``.
        """
        _check_row(index, len(self))
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

    Tables depend only on the problem, never on the mappings priced
    against it, so memoizing them (:data:`_PROBLEM_TABLES`) grows with the
    problems served, not with the traffic.  Loop orders are lowered per
    call in :func:`compile_megabatch`.
    """

    dim_index: Dict[str, int]
    bounds: np.ndarray  # (D,) int64 problem dimension bounds
    is_output: np.ndarray  # (T,) bool
    relevant: np.ndarray  # (T, D) bool
    sel: np.ndarray  # (T, A, D + 1) int64 axis-span selection tensor
    ops_per_point: float
    total_ops: float

    @property
    def n_dims(self) -> int:
        return self.bounds.shape[0]

    @property
    def n_tensors(self) -> int:
        return self.is_output.shape[0]


#: Memoized per-problem tables.  Keyed by the same identity the oracle
#: cache uses; values are immutable once built, so a benign double-build
#: race just produces an equal value (``setdefault`` keeps one winner).
_PROBLEM_TABLES: Dict[Hashable, _ProblemTables] = {}


def _problem_tables(problem: Problem, key: Hashable) -> _ProblemTables:
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

    The lowered form of every batch the kernels price: the dim axis is
    padded to the union's ``max(D)`` with ``(1, 1, 1, 1)`` tile factors and
    the nest axis to ``3 * max(D)`` with bound-1 loops at the end of each
    level segment (semantically inert — the kernels mask bound-1 loops out
    of every relevance test, and they multiply every product by 1).
    Per-problem tensor tables are padded to the union's ``max(T)`` slots in
    each problem's *own tensor order* (``slot_valid`` masks the padding
    slots), which keeps every per-lane reduction ordered the same whatever
    the lane's batchmates — a lane's statistics are bitwise independent of
    which lanes and problems share its megabatch.

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


def compile_megabatch(
    mappings: Sequence[Mapping], problems: Sequence[Problem]
) -> MegaBatch:
    """Lower aligned ``(mappings[i], problems[i])`` lanes into a :class:`MegaBatch`.

    ``problems`` may repeat freely (a serving round lists each lane's
    problem); distinct problems are deduplicated by cost identity
    (:func:`~repro.costmodel.cache.problem_key`) in first-appearance order.
    Validation matches ``CostModel._check_structure`` per lane: mismatched
    dims or factor products raise ``ValueError`` naming the first offender.
    Nothing derived from the mappings is memoized, so a long-lived process
    pricing fresh mappings retains nothing per call.
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

    # Group-major rows: lower each problem's lanes contiguously, with one
    # flat ``np.fromiter`` per group for the tile factors and one for the
    # loop orders (flat conversion skips numpy's nested-sequence shape
    # discovery).  Tile rows land in a ones-filled (N, Dmax, 4) array
    # (padding dims keep factor 1 at every level).  Each level's order is
    # the lane's dims as indices, then padding positions naming the
    # problem's first padding dim, whose factors are all 1, so the
    # nest-bound gather below reads bound 1 for them without a second pass.
    lane_index = np.asarray(
        [i for group in lane_groups for i in group], dtype=np.int64
    )
    problem_idx = np.repeat(
        np.arange(len(distinct), dtype=np.int64),
        [len(group) for group in lane_groups],
    )
    tile_factors = np.ones((n, max_dims, 4), dtype=np.int64)
    nest_dims = np.empty((n, 3, max_dims), dtype=np.int64)
    flatten = itertools.chain.from_iterable
    row_start = 0
    for g, (problem, tab) in enumerate(zip(distinct, tables)):
        dims = problem.dim_names
        d = tab.n_dims
        group = [mappings[i] for i in lane_groups[g]]
        for mapping in group:
            if mapping.dims != dims:
                raise ValueError(
                    f"mapping dims {mapping.dims} do not match problem dims {dims}"
                )
        # Mapping guarantees d factor 4-tuples and three permutations of
        # its dims, so both counts are exact.
        row_end = row_start + len(group)
        tile_factors[row_start:row_end, :d, :] = np.fromiter(
            flatten(flatten(mapping.tile_factors for mapping in group)),
            dtype=np.int64,
            count=len(group) * d * 4,
        ).reshape(-1, d, 4)
        group_nest = nest_dims[row_start:row_end]
        group_nest[:, :, :d] = np.fromiter(
            map(
                tab.dim_index.__getitem__,
                flatten(flatten(mapping.loop_orders for mapping in group)),
            ),
            dtype=np.int64,
            count=len(group) * 3 * d,
        ).reshape(-1, 3, d)
        if d < max_dims:
            group_nest[:, :, d:] = d
        row_start = row_end
    nest_dims = nest_dims.reshape(n, 3 * max_dims)

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
    one problem's lanes back out as a :class:`BatchCostStats`.

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

    # -- aggregates (same formulas/operation order as BatchCostStats, ------
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
        trimmed to the problem's tensor count.  A lane's values do not
        depend on its batchmates, so the slice equals :func:`evaluate_batch`
        over the same lanes bitwise, and downstream consumers of
        homogeneous batches (replay-buffer labels, meta matrices) cannot
        tell how the lanes were grouped.
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
        _check_row(index, len(self))
        row = int(self._row_of_lane[index])
        group = int(self.row_problem_idx[row])
        start = self._group_rows(group).start
        return self.problem_slice(group).stats_at(row - start)


#: Widest nest (3 * Dmax) the bit-packed fills position recovery handles:
#: packed position words must fit the float64 mantissa to stay exact.
#: Wider nests take the direct masked-position fallback (bitwise identical,
#: just slower); tests force the fallback by monkeypatching this to 0.
_BITPACK_MAX_WIDTH = 53


def _slot_footprints(
    extents3: np.ndarray, sel: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`TensorSpec.footprint` vectorized over lanes, slots and levels.

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
    """Price aligned ``(mappings[i], problems[i])`` lanes in one pass.

    One compile, one run of the traffic/energy/cycles kernels over the
    whole union, however many distinct problems the lanes span.  Each
    lane's results are bitwise independent of the other lanes in the call.
    """
    return evaluate_mega_compiled(accelerator, compile_megabatch(mappings, problems))


def evaluate_batch(
    accelerator: Accelerator, mappings: Sequence[Mapping], problem: Problem
) -> BatchCostStats:
    """Price ``mappings`` against one ``problem``: the one-group megabatch.

    Produces per-tensor/per-level traffic, NoC words, cycles, utilization
    — everything the scalar :meth:`CostModel.evaluate` computes — as
    stacked arrays, with semantics identical to evaluating each mapping
    independently (see the parity suite).  An empty batch returns a
    zero-row :class:`BatchCostStats` of the problem's tensor count.
    """
    n = len(mappings)
    if n:
        stats = evaluate_megabatch(accelerator, mappings, [problem] * n)
        return stats.problem_slice(0)
    return BatchCostStats(
        problem_name=problem.name,
        tensor_names=tuple(tensor.name for tensor in problem.tensors),
        accesses=np.empty((0, len(problem.tensors), len(MEMORY_LEVELS))),
        access_energy_pj=_access_energy(accelerator),
        noc_words=np.empty(0),
        noc_hop_pj=accelerator.energy.noc_hop,
        mac_energy_pj=float(problem.total_ops) * accelerator.energy.mac,
        cycles=np.empty(0),
        utilization=np.empty(0),
        spatial_pes=np.empty(0, dtype=np.int64),
        clock_ghz=accelerator.clock_ghz,
    )


def evaluate_mega_compiled(
    accelerator: Accelerator, mega: MegaBatch
) -> MegaBatchCostStats:
    """The megabatch kernels over an already-compiled :class:`MegaBatch`.

    Runs the scalar model's fill/reuse/traffic formulas vectorized over
    lanes and the tensor-slot axis: both the output-tensor and operand
    kernels are computed for every slot and selected by the
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
    access_energy = _access_energy(accelerator)
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
    # identical to the scalar model's product of relevant loop bounds.
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

    ``problems`` counts distinct problems by cost identity
    (:func:`~repro.costmodel.cache.problem_key`), as
    :func:`compile_megabatch` dedups them: two decoded copies of one
    problem are one problem.  ``padding_waste_ratio`` is the fraction of
    padded per-lane cells that hold inert padding rather than real
    loops/slots: lanes are padded to ``union_dims`` dimensions and
    ``union_slots`` tensor slots (the rectangular union
    :func:`compile_megabatch` lowers to), so a homogeneous union wastes 0.0
    and a union mixing narrow lanes into a wide rectangle approaches the
    fraction of cells that are bound-1 / invalid-slot filler.
    """
    from repro.costmodel.cache import problem_key

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
    # Key each distinct object once; lanes repeat the same objects.
    objects = {id(problem): problem for problem in problems}
    distinct = len({problem_key(problem) for problem in objects.values()})
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
    "MegaBatch",
    "MegaBatchCostStats",
    "compile_megabatch",
    "evaluate_batch",
    "evaluate_megabatch",
    "evaluate_mega_compiled",
    "megabatch_shape_stats",
]
