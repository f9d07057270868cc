"""The :class:`MapSpace`: validity, sampling, projection, and neighbourhoods.

Implements the three routines the paper's API requires (Appendix B):

* ``sample``    -> *getMapping*: a random valid mapping,
* ``is_member`` -> *isMember*: validity of a candidate mapping,
* ``project``   -> *getProjection*: nearest valid mapping to a candidate,

plus the neighbourhood/crossover moves that the black-box baselines (SA, GA,
RL) operate with, and exhaustive enumeration for tiny spaces (tests and the
1D-Conv running example).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.accelerator import Accelerator
from repro.mapspace.factors import (
    compositions,
    nearest_composition,
    nearest_factorization,
    sample_composition,
    smallest_prime_factor,
)
from repro.mapspace.mapping import ALLOC_LEVELS, FACTOR_SLOTS, Mapping, ORDER_LEVELS
from repro.utils import factorizations, prod
from repro.utils.rng import SeedLike, ensure_rng
from repro.workloads.problem import Problem

#: Tile-factor slot indices (see ``FACTOR_SLOTS``).
_DRAM, _L2, _SPATIAL, _L1 = 0, 1, 2, 3

#: Allocatable-level indices (see ``ALLOC_LEVELS``).
_AT_L2, _AT_L1 = 0, 1


@functools.lru_cache(maxsize=5040)
def shared_loop_order(dims: Tuple[str, ...], perm: Tuple[int, ...]) -> Tuple[str, ...]:
    """``dims`` permuted by index tuple ``perm``, shared across map spaces.

    Module-level because a :class:`MapSpace` is rebuilt per request; sized
    for the 7! orders of a seven-dimension problem.  Sampling and
    ``MappingEncoder.decode`` both read it, so retained mappings share it.
    """
    return tuple(dims[i] for i in perm)


def _level_extents(tile_factors: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """Per-dimension L2 and L1 tile extents (``ALLOC_LEVELS`` order).

    The L2 tile spans L1 x spatial x L2 factors; the L1 tile the L1 factor.
    """
    return (
        [f[_L1] * f[_SPATIAL] * f[_L2] for f in tile_factors],
        [f[_L1] for f in tile_factors],
    )


class MapSpace:
    """All valid mappings of one problem onto one accelerator.

    Construction builds small integer tables: each dimension's ordered
    factorizations, each tensor's footprint axes as dimension indices, and
    each buffer level's bank words and bank count.  Sampling, membership
    and projection compute on those tables and build a :class:`Mapping`
    only for what they return.  Exhaustive enumeration stays lazy.
    Instances are immutable apart from an append-only intern table of
    equal values (see :meth:`intern`), and safe to share between searchers.
    """

    def __init__(self, problem: Problem, accelerator: Accelerator) -> None:
        self.problem = problem
        self.accelerator = accelerator
        self.dims: Tuple[str, ...] = problem.dim_names
        self.tensor_names: Tuple[str, ...] = tuple(t.name for t in problem.tensors)
        self._tensors = problem.tensors
        self._bounds = problem.bounds
        dim_index = {dim: i for i, dim in enumerate(self.dims)}
        #: Per dimension (dim order): its bound and its ordered factorizations.
        self._dim_bounds = tuple(self._bounds[dim] for dim in self.dims)
        self._options = tuple(factorizations(bound, 4) for bound in self._dim_bounds)
        #: Per tensor, as dim indices: its footprint axes, split into plain
        #: axes and sliding-window axes (see ``_footprints``), and its
        #: relevant dimensions.
        self._axes = tuple(
            (
                tuple(dim_index[axis[0]] for axis in tensor.axes if len(axis) == 1),
                tuple(
                    tuple(dim_index[dim] for dim in axis)
                    for axis in tensor.axes
                    if len(axis) > 1
                ),
            )
            for tensor in self._tensors
        )
        self._relevant = tuple(
            tuple(sorted(dim_index[dim] for dim in tensor.dims))
            for tensor in self._tensors
        )
        #: Per allocatable level (``ALLOC_LEVELS`` order).
        self._bank_totals = tuple(accelerator.banks(level) for level in ALLOC_LEVELS)
        self._bank_words = tuple(accelerator.bank_words(level) for level in ALLOC_LEVELS)
        self._num_pes = accelerator.num_pes
        self._movable = tuple(dim for dim in self.dims if self._bounds[dim] > 1)
        self._interned: Dict[object, object] = {}

    def intern(self, value: Any) -> Any:
        """``value``, or the equal value this space interned first: decode
        and project's repair path share the equal mappings (and parts) a
        search retains.  Callers still compare by ``==``."""
        return self._interned.setdefault(value, value)

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------

    def validity_errors(self, mapping: Mapping) -> List[str]:
        """All reasons ``mapping`` is invalid (empty list when valid).

        The diagnostic twin of :meth:`is_member`, which answers the same
        question on the space's tables without formatting messages.
        """
        errors: List[str] = []
        if mapping.dims != self.dims:
            errors.append(f"dims {mapping.dims} != problem dims {self.dims}")
            return errors
        if mapping.tensors != self.tensor_names:
            errors.append(f"tensors {mapping.tensors} != {self.tensor_names}")
            return errors
        for dim in self.dims:
            implied = mapping.dim_bound(dim)
            if implied != self._bounds[dim]:
                errors.append(
                    f"factors of {dim} multiply to {implied}, bound is {self._bounds[dim]}"
                )
        if mapping.spatial_size > self.accelerator.num_pes:
            errors.append(
                f"spatial parallelism {mapping.spatial_size} exceeds "
                f"{self.accelerator.num_pes} PEs"
            )
        for level in ALLOC_LEVELS:
            banks = mapping.alloc_banks(level)
            total = sum(banks.values())
            if total > self.accelerator.banks(level):
                errors.append(
                    f"{level} allocation uses {total} banks, only "
                    f"{self.accelerator.banks(level)} available"
                )
            extents = mapping.tile_extents(level)
            bank_words = self.accelerator.bank_words(level)
            for tensor in self._tensors:
                footprint = tensor.footprint(extents)
                capacity = banks[tensor.name] * bank_words
                if footprint > capacity:
                    errors.append(
                        f"{tensor.name} tile ({footprint} words) exceeds its "
                        f"{level} allocation ({capacity} words)"
                    )
        return errors

    def is_member(self, mapping: Mapping) -> bool:
        """True when ``mapping`` is valid for this problem and accelerator.

        The paper's ``isMember(m, p)`` routine: ``not validity_errors(m)``,
        short-circuited over the space's tables.
        """
        if mapping.dims != self.dims or mapping.tensors != self.tensor_names:
            return False
        tile_factors = mapping.tile_factors
        spatial = 1
        for (dram, l2, pes, l1), bound in zip(tile_factors, self._dim_bounds):
            if dram * l2 * pes * l1 != bound:
                return False
            spatial *= pes
        if spatial > self._num_pes:
            return False
        for banks, total in zip(mapping.allocation, self._bank_totals):
            if sum(banks) > total:
                return False
        footprints = [self._footprints(e) for e in _level_extents(tile_factors)]
        return self._fits(footprints, mapping.allocation)

    def _footprints(self, extents: Sequence[int]) -> List[int]:
        """Every tensor's ``TensorSpec.footprint`` for dim-order ``extents``.

        Extents are products of factors >= 1, so only a sliding-window
        axis (``x + r - 1`` positions) needs the floor at 1.
        """
        get = extents.__getitem__
        footprints = []
        for plain, windows in self._axes:
            footprint = math.prod(map(get, plain))
            for window in windows:
                footprint *= max(sum(map(get, window)) - (len(window) - 1), 1)
            footprints.append(footprint)
        return footprints

    def _fits(
        self, footprints: List[List[int]], allocation: Sequence[Sequence[int]]
    ) -> bool:
        """Every tensor's tile fits its banks at every level."""
        for level_footprints, banks, words in zip(
            footprints, allocation, self._bank_words
        ):
            for footprint, tensor_banks in zip(level_footprints, banks):
                if footprint > tensor_banks * words:
                    return False
        return True

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, seed: SeedLike = None, max_tries: int = 64) -> Mapping:
        """A random valid mapping (the paper's ``getMapping`` routine).

        Rejection-samples uniform candidates; if ``max_tries`` candidates are
        all invalid (tight buffers), deterministically repairs the last one
        via :meth:`project` so sampling always terminates.  Candidates are
        tested as raw parts; only the returned one becomes a ``Mapping``.
        Bounds, spatial size and bank totals hold by construction, so the
        capacity check is exactly ``is_member`` of the assembled mapping.
        """
        if max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {max_tries}")
        rng = ensure_rng(seed)
        n_tensors = len(self._tensors)
        for attempt in range(max_tries):
            tile_factors = self._sample_tile_factors(rng)
            orders = tuple(self.random_loop_order(rng) for _ in ORDER_LEVELS)
            footprints = [self._footprints(e) for e in _level_extents(tile_factors)]
            if attempt % 2 == 1:
                # The footprint-proportional split draws nothing, so it is
                # skipped when no split can hold the tiles, unless this is
                # the candidate projected below.
                if attempt < max_tries - 1 and not self._splittable(footprints):
                    continue
                allocation = tuple(
                    nearest_composition(
                        total,
                        n_tensors,
                        np.array([max(f, 1) for f in level_footprints], dtype=float),
                    )
                    for total, level_footprints in zip(self._bank_totals, footprints)
                )
            else:
                allocation = tuple(
                    sample_composition(total, n_tensors, rng)
                    for total in self._bank_totals
                )
            if self._fits(footprints, allocation):
                return Mapping(
                    self.dims, tile_factors, orders, self.tensor_names, allocation
                )
        return self.project(
            Mapping(self.dims, tile_factors, orders, self.tensor_names, allocation)
        )

    def sample_many(self, count: int, seed: SeedLike = None) -> List[Mapping]:
        """``count`` independent valid samples from one deterministic stream."""
        rng = ensure_rng(seed)
        return [self.sample(rng) for _ in range(count)]

    def random_loop_order(self, rng: np.random.Generator) -> Tuple[str, ...]:
        """A uniform permutation of ``dims`` (one ``rng.permutation`` draw).

        Permuting indices draws the stream permuting the names would, and
        the shared order table keeps plain, interned ``str`` names.
        """
        perm = rng.permutation(len(self.dims)).tolist()
        return shared_loop_order(self.dims, tuple(perm))

    def _sample_tile_factors(
        self, rng: np.random.Generator
    ) -> Tuple[Tuple[int, ...], ...]:
        """One uniform factorization per dimension, spatially capped.

        Rows are the shared factorization tuples unless the cap changes them.
        """
        tile_factors = [
            options[int(rng.integers(0, len(options)))] for options in self._options
        ]
        if prod(f[_SPATIAL] for f in tile_factors) > self._num_pes:
            capped = [list(f) for f in tile_factors]
            self._cap_spatial(capped)
            tile_factors = [
                f if list(f) == c else tuple(c) for f, c in zip(tile_factors, capped)
            ]
        return tuple(tile_factors)

    def _splittable(self, footprints: List[List[int]]) -> bool:
        """Whether some bank split could hold these per-level footprints.

        Each tensor needs ``ceil(footprint / bank words)`` banks, so when a
        level's needs exceed its banks every split of them fails ``_fits``.
        """
        return all(
            sum(-(-footprint // words) for footprint in level_footprints) <= total
            for level_footprints, words, total in zip(
                footprints, self._bank_words, self._bank_totals
            )
        )

    def _cap_spatial(self, tile_factors: List[List[int]]) -> None:
        """Demote spatial factors to L2-temporal until they fit the PE array."""
        while prod(f[_SPATIAL] for f in tile_factors) > self._num_pes:
            index = max(
                range(len(tile_factors)), key=lambda i: tile_factors[i][_SPATIAL]
            )
            factors = tile_factors[index]
            prime = smallest_prime_factor(factors[_SPATIAL])
            factors[_SPATIAL] //= prime
            factors[_L2] *= prime

    # ------------------------------------------------------------------
    # Projection (the paper's getProjection, used by PGD)
    # ------------------------------------------------------------------

    def project(self, mapping: Mapping) -> Mapping:
        """Nearest valid mapping to ``mapping`` (paper section 4.2).

        Repairs, in order: factor products that do not match the dimension
        bounds (nearest factorization in log space), spatial overflow
        (demote to L2-temporal), over-committed bank allocations (largest
        remainder rounding), and buffer-capacity violations (hoist tile
        factors toward DRAM until each tensor's tile fits its banks).

        A valid mapping comes back as itself, and whatever needs no repair
        keeps its input tuple: immutable parts are shared, so the many
        near-identical mappings a search retains cost less.  What the
        repair builds is interned (:meth:`intern`).
        """
        if self.is_member(mapping):
            return mapping
        tile_factors = [list(f) for f in mapping.tile_factors]
        for index, bound in enumerate(self._dim_bounds):
            if prod(tile_factors[index]) != bound:
                tile_factors[index] = list(
                    nearest_factorization(bound, 4, tile_factors[index])
                )
        self._cap_spatial(tile_factors)
        allocation = self._repair_allocation(mapping)
        tile_factors = self._repair_capacity(tile_factors, allocation)
        intern = self.intern
        factors = intern(tuple(
            original if list(original) == repaired else intern(tuple(repaired))
            for original, repaired in zip(mapping.tile_factors, tile_factors)
        ))
        if (
            factors == mapping.tile_factors
            and allocation == mapping.allocation
            and mapping.dims == self.dims
            and mapping.tensors == self.tensor_names
        ):
            return mapping
        return intern(Mapping(
            dims=self.dims,
            tile_factors=factors,
            loop_orders=mapping.loop_orders,
            tensors=self.tensor_names,
            allocation=allocation,
        ))

    def _repair_allocation(self, mapping: Mapping) -> Tuple[Tuple[int, ...], ...]:
        allocation = []
        for total, banks in zip(self._bank_totals, mapping.allocation):
            if sum(banks) > total or any(b < 1 for b in banks):
                banks = nearest_composition(total, len(banks), banks)
            allocation.append(self.intern(tuple(banks)))
        return self.intern(tuple(allocation))

    def _repair_capacity(
        self,
        tile_factors: List[List[int]],
        allocation: Tuple[Tuple[int, ...], ...],
    ) -> List[List[int]]:
        """Hoist factors toward DRAM until every tile fits its banks.

        L1 violations move a prime factor L1 -> L2 (shrinks the L1 tile,
        keeps the L2 tile unchanged); L2 violations move L2 -> DRAM, then
        spatial -> DRAM, then L1 -> DRAM as a last resort.  Terminates
        because each step strictly shrinks the product of non-DRAM factors.
        """
        alloc_by_level = [dict(zip(self.tensor_names, banks)) for banks in allocation]

        def violating_tensor(level: int) -> Optional[int]:
            footprints = self._footprints(_level_extents(tile_factors)[level])
            bank_words = self._bank_words[level]
            banks = alloc_by_level[level]
            for t_index, name in enumerate(self.tensor_names):
                if footprints[t_index] > banks[name] * bank_words:
                    return t_index
            return None

        def hoist(t_index: int, source_slots: Sequence[int], dest_slot: int) -> bool:
            """Move one prime factor of a relevant dim up; False if stuck."""
            for slot in source_slots:
                candidates = [
                    i for i in self._relevant[t_index] if tile_factors[i][slot] > 1
                ]
                if candidates:
                    index = max(candidates, key=lambda i: tile_factors[i][slot])
                    prime = smallest_prime_factor(tile_factors[index][slot])
                    tile_factors[index][slot] //= prime
                    tile_factors[index][dest_slot] *= prime
                    return True
            return False

        # L1 first: shrinking L1 tiles never worsens L2 residency.
        while True:
            t_index = violating_tensor(_AT_L1)
            if t_index is None:
                break
            if not hoist(t_index, (_L1,), _L2):
                break  # tile already minimal; nothing more to shrink
        while True:
            t_index = violating_tensor(_AT_L2)
            if t_index is None:
                break
            if not hoist(t_index, (_L2, _SPATIAL, _L1), _DRAM):
                break
        return tile_factors

    # ------------------------------------------------------------------
    # Neighbourhood moves (SA / GA substrate)
    # ------------------------------------------------------------------

    #: Move kinds understood by :meth:`random_neighbor`.
    MOVE_KINDS: Tuple[str, ...] = ("tile", "spatial", "order", "alloc")

    def random_neighbor(
        self, mapping: Mapping, seed: SeedLike = None, kind: Optional[str] = None
    ) -> Mapping:
        """A valid mapping one local move away from ``mapping``.

        Moves: ``tile`` shifts one prime factor of one dimension between two
        memory levels; ``spatial`` trades parallelism against L2-temporal
        iteration; ``order`` swaps two loops at one level; ``alloc`` moves
        one bank between tensors.  The result is re-projected, so it is
        always valid.
        """
        rng = ensure_rng(seed)
        move = kind or self.MOVE_KINDS[int(rng.integers(0, len(self.MOVE_KINDS)))]
        if move == "tile":
            neighbor = self._move_tile(mapping, rng)
        elif move == "spatial":
            neighbor = self._move_spatial(mapping, rng)
        elif move == "order":
            neighbor = self._move_order(mapping, rng)
        elif move == "alloc":
            neighbor = self._move_alloc(mapping, rng)
        else:
            raise ValueError(f"unknown move kind {move!r}")
        return self.project(neighbor)

    def _move_tile(self, mapping: Mapping, rng: np.random.Generator) -> Mapping:
        if not self._movable:
            return mapping
        dim = self._movable[int(rng.integers(0, len(self._movable)))]
        factors = list(mapping.factors(dim))
        sources = [slot for slot in range(4) if factors[slot] > 1]
        if not sources:
            return mapping
        source = sources[int(rng.integers(0, len(sources)))]
        dest_options = [slot for slot in range(4) if slot != source]
        dest = dest_options[int(rng.integers(0, len(dest_options)))]
        prime = smallest_prime_factor(factors[source])
        factors[source] //= prime
        factors[dest] *= prime
        return mapping.with_tile_factors(dim, factors)

    def _move_spatial(self, mapping: Mapping, rng: np.random.Generator) -> Mapping:
        dim = self.dims[int(rng.integers(0, len(self.dims)))]
        factors = list(mapping.factors(dim))
        if factors[_SPATIAL] > 1 and rng.random() < 0.5:
            prime = smallest_prime_factor(factors[_SPATIAL])
            factors[_SPATIAL] //= prime
            factors[_L2] *= prime
        elif factors[_L2] > 1:
            prime = smallest_prime_factor(factors[_L2])
            factors[_L2] //= prime
            factors[_SPATIAL] *= prime
        elif factors[_L1] > 1:
            prime = smallest_prime_factor(factors[_L1])
            factors[_L1] //= prime
            factors[_SPATIAL] *= prime
        return mapping.with_tile_factors(dim, factors)

    def _move_order(self, mapping: Mapping, rng: np.random.Generator) -> Mapping:
        if len(self.dims) < 2:
            return mapping
        level = ORDER_LEVELS[int(rng.integers(0, len(ORDER_LEVELS)))]
        order = list(mapping.loop_order(level))
        i, j = rng.choice(len(order), size=2, replace=False)
        order[int(i)], order[int(j)] = order[int(j)], order[int(i)]
        return mapping.with_loop_order(level, order)

    def _move_alloc(self, mapping: Mapping, rng: np.random.Generator) -> Mapping:
        if len(self.tensor_names) < 2:
            return mapping
        level = ALLOC_LEVELS[int(rng.integers(0, len(ALLOC_LEVELS)))]
        banks = list(mapping.allocation[ALLOC_LEVELS.index(level)])
        donors = [i for i, b in enumerate(banks) if b > 1]
        if not donors:
            return mapping
        donor = donors[int(rng.integers(0, len(donors)))]
        receivers = [i for i in range(len(banks)) if i != donor]
        receiver = receivers[int(rng.integers(0, len(receivers)))]
        banks[donor] -= 1
        banks[receiver] += 1
        return mapping.with_allocation(level, banks)

    # ------------------------------------------------------------------
    # Crossover attribute groups (GA substrate)
    # ------------------------------------------------------------------

    def attribute_groups(self) -> Tuple[str, ...]:
        """Named attribute groups a GA can cross over between individuals."""
        groups = [f"tile:{dim}" for dim in self.dims]
        groups += [f"order:{level}" for level in ORDER_LEVELS]
        groups += [f"alloc:{level}" for level in ALLOC_LEVELS]
        return tuple(groups)

    def get_group(self, mapping: Mapping, group: str):
        """The value of one attribute group (opaque to callers)."""
        kind, _, key = group.partition(":")
        if kind == "tile":
            return mapping.factors(key)
        if kind == "order":
            return mapping.loop_order(key)
        if kind == "alloc":
            return mapping.allocation[ALLOC_LEVELS.index(key)]
        raise KeyError(f"unknown attribute group {group!r}")

    def set_group(self, mapping: Mapping, group: str, value) -> Mapping:
        """Copy of ``mapping`` with one attribute group replaced + projected."""
        kind, _, key = group.partition(":")
        if kind == "tile":
            updated = mapping.with_tile_factors(key, value)
        elif kind == "order":
            updated = mapping.with_loop_order(key, value)
        elif kind == "alloc":
            updated = mapping.with_allocation(key, value)
        else:
            raise KeyError(f"unknown attribute group {group!r}")
        return self.project(updated)

    # ------------------------------------------------------------------
    # Size accounting and exhaustive enumeration
    # ------------------------------------------------------------------

    def size(self) -> float:
        """Upper bound on the number of mappings (paper section 2.1 Big-Oh).

        Product of per-dimension factorization counts, loop-order
        permutations per level, and bank compositions per level.  Returned
        as a float because realistic spaces overflow 64-bit integers
        (e.g. ~1e25 for ResNet Conv_4 in the paper).
        """
        total = 1.0
        for options in self._options:
            total *= len(options)
        total *= math.factorial(len(self.dims)) ** len(ORDER_LEVELS)
        for level in ALLOC_LEVELS:
            spare = self.accelerator.banks(level) - len(self.tensor_names)
            total *= math.comb(spare + len(self.tensor_names) - 1, len(self.tensor_names) - 1)
        return total

    def enumerate_mappings(
        self,
        *,
        include_orders: bool = True,
        balanced_allocation: bool = True,
        limit: int = 1_000_000,
    ) -> Iterator[Mapping]:
        """Yield every valid mapping of a *tiny* space.

        ``balanced_allocation`` pins the bank split to a near-even
        composition (otherwise allocations are enumerated too, which
        multiplies the space by hundreds).  Raises ``ValueError`` when the
        enumeration would exceed ``limit``.
        """
        factor_options = self._options
        # Count candidates arithmetically BEFORE materializing anything: a
        # 7-dim space has (7!)^3 ~ 1.3e11 order combinations, so eager
        # construction must never happen.
        if include_orders:
            n_orders = math.factorial(len(self.dims)) ** len(ORDER_LEVELS)
        else:
            n_orders = 1
        if balanced_allocation:
            n_allocs = 1
        else:
            n_allocs = 1
            for level in ALLOC_LEVELS:
                spare = self.accelerator.banks(level) - len(self.tensor_names)
                n_allocs *= math.comb(
                    spare + len(self.tensor_names) - 1, len(self.tensor_names) - 1
                )
        count = prod(len(o) for o in factor_options) * n_orders * n_allocs
        if count > limit:
            raise ValueError(
                f"map space enumeration would visit {count} candidates "
                f"(limit {limit}); restrict orders/allocations or raise limit"
            )

        if balanced_allocation:
            alloc_options: Tuple[Tuple[Tuple[int, ...], ...], ...] = (
                tuple(
                    nearest_composition(
                        self.accelerator.banks(level),
                        len(self.tensor_names),
                        [1.0] * len(self.tensor_names),
                    )
                    for level in ALLOC_LEVELS
                ),
            )
        else:
            per_level = [
                compositions(self.accelerator.banks(level), len(self.tensor_names))
                for level in ALLOC_LEVELS
            ]
            alloc_options = tuple(itertools.product(*per_level))

        perms = tuple(itertools.permutations(self.dims)) if include_orders else None
        for tiles in itertools.product(*factor_options):
            if perms is not None:
                order_iter = itertools.product(perms, repeat=len(ORDER_LEVELS))
            else:
                identity = tuple(self.dims)
                order_iter = iter([(identity,) * len(ORDER_LEVELS)])
            for orders in order_iter:
                for allocation in alloc_options:
                    mapping = Mapping(
                        dims=self.dims,
                        tile_factors=tiles,
                        loop_orders=orders,
                        tensors=self.tensor_names,
                        allocation=allocation,
                    )
                    if self.is_member(mapping):
                        yield mapping


__all__ = ["MapSpace", "shared_loop_order"]
