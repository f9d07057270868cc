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

import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.accelerator import Accelerator
from repro.mapspace.factors import (
    compositions,
    nearest_composition,
    nearest_factorization,
    sample_composition,
    sample_factorization,
    smallest_prime_factor,
)
from repro.mapspace.mapping import ALLOC_LEVELS, FACTOR_SLOTS, Mapping, ORDER_LEVELS
from repro.utils import factorizations, prod
from repro.utils.rng import SeedLike, ensure_rng
from repro.workloads.problem import Problem

#: Tile-factor slot indices (see ``FACTOR_SLOTS``).
_DRAM, _L2, _SPATIAL, _L1 = 0, 1, 2, 3


class MapSpace:
    """All valid mappings of one problem onto one accelerator.

    Construction is cheap; all expensive enumeration is lazy.  Instances are
    immutable and safe to share between searchers.
    """

    def __init__(self, problem: Problem, accelerator: Accelerator) -> None:
        self.problem = problem
        self.accelerator = accelerator
        self.dims: Tuple[str, ...] = problem.dim_names
        self.tensor_names: Tuple[str, ...] = tuple(t.name for t in problem.tensors)
        self._tensors = problem.tensors
        self._bounds = problem.bounds

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------

    def validity_errors(self, mapping: Mapping) -> List[str]:
        """All reasons ``mapping`` is invalid (empty list when valid)."""
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

        The paper's ``isMember(m, p)`` routine.
        """
        return not self.validity_errors(mapping)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, seed: SeedLike = None, max_tries: int = 64) -> Mapping:
        """A random valid mapping (the paper's ``getMapping`` routine).

        Rejection-samples uniform candidates; if ``max_tries`` candidates are
        all invalid (tight buffers), deterministically repairs the last one
        via :meth:`project` so sampling always terminates.
        """
        rng = ensure_rng(seed)
        candidate: Optional[Mapping] = None
        for attempt in range(max_tries):
            candidate = self._sample_candidate(rng, proportional_alloc=attempt % 2 == 1)
            if self.is_member(candidate):
                return candidate
        assert candidate is not None
        return self.project(candidate)

    def sample_many(self, count: int, seed: SeedLike = None) -> List[Mapping]:
        """``count`` independent valid samples from one deterministic stream."""
        rng = ensure_rng(seed)
        return [self.sample(rng) for _ in range(count)]

    def _sample_candidate(
        self, rng: np.random.Generator, proportional_alloc: bool = False
    ) -> Mapping:
        """One structurally-valid candidate (may violate capacity limits)."""
        tile_factors = []
        for dim in self.dims:
            factors = list(sample_factorization(self._bounds[dim], 4, rng))
            tile_factors.append(factors)
        self._cap_spatial(tile_factors)
        # Permuting indices draws the stream permuting the names would, but
        # keeps plain ``str`` names (``numpy.str_`` copies cost memory).
        orders = tuple(
            tuple(self.dims[i] for i in rng.permutation(len(self.dims)).tolist())
            for _ in ORDER_LEVELS
        )
        mapping = Mapping(
            dims=self.dims,
            tile_factors=tuple(tuple(f) for f in tile_factors),
            loop_orders=orders,
            tensors=self.tensor_names,
            allocation=self._sample_allocation(rng, tile_factors, proportional_alloc),
        )
        return mapping

    def _cap_spatial(self, tile_factors: List[List[int]]) -> None:
        """Demote spatial factors to L2-temporal until they fit the PE array."""
        while prod(f[_SPATIAL] for f in tile_factors) > self.accelerator.num_pes:
            index = max(
                range(len(tile_factors)), key=lambda i: tile_factors[i][_SPATIAL]
            )
            factors = tile_factors[index]
            prime = smallest_prime_factor(factors[_SPATIAL])
            factors[_SPATIAL] //= prime
            factors[_L2] *= prime

    def _sample_allocation(
        self,
        rng: np.random.Generator,
        tile_factors: Sequence[Sequence[int]],
        proportional: bool,
    ) -> Tuple[Tuple[int, ...], ...]:
        """Bank split per level: uniform, or footprint-proportional."""
        n_tensors = len(self._tensors)
        allocation = []
        for level in ALLOC_LEVELS:
            total = self.accelerator.banks(level)
            if not proportional:
                allocation.append(sample_composition(total, n_tensors, rng))
                continue
            extents = self._extents_for(level, tile_factors)
            footprints = np.array(
                [max(t.footprint(extents), 1) for t in self._tensors], dtype=float
            )
            allocation.append(nearest_composition(total, n_tensors, footprints))
        return tuple(allocation)

    def _extents_for(
        self, level: str, tile_factors: Sequence[Sequence[int]]
    ) -> Dict[str, int]:
        extents = {}
        for dim, factors in zip(self.dims, tile_factors):
            if level == "L1":
                extents[dim] = factors[_L1]
            else:  # L2 tile spans L1 x spatial x L2 factors
                extents[dim] = factors[_L1] * factors[_SPATIAL] * factors[_L2]
        return extents

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

        Whatever needs no repair keeps its input tuple, and a mapping that
        needs none comes back as itself: immutable parts are shared, so
        the many near-identical mappings a search retains cost less.
        """
        tile_factors = [list(f) for f in mapping.tile_factors]
        for index, dim in enumerate(self.dims):
            bound = self._bounds[dim]
            if prod(tile_factors[index]) != bound:
                tile_factors[index] = list(
                    nearest_factorization(bound, 4, tile_factors[index])
                )
        self._cap_spatial(tile_factors)
        allocation = self._repair_allocation(mapping)
        tile_factors = self._repair_capacity(tile_factors, allocation)
        factors = tuple(
            original if list(original) == repaired else tuple(repaired)
            for original, repaired in zip(mapping.tile_factors, tile_factors)
        )
        if (
            factors == mapping.tile_factors
            and allocation == mapping.allocation
            and mapping.dims == self.dims
            and mapping.tensors == self.tensor_names
        ):
            return mapping
        return Mapping(
            dims=self.dims,
            tile_factors=factors,
            loop_orders=mapping.loop_orders,
            tensors=self.tensor_names,
            allocation=allocation,
        )

    def _repair_allocation(self, mapping: Mapping) -> Tuple[Tuple[int, ...], ...]:
        allocation = []
        for level, banks in zip(ALLOC_LEVELS, mapping.allocation):
            total = self.accelerator.banks(level)
            if sum(banks) > total or any(b < 1 for b in banks):
                banks = nearest_composition(total, len(banks), banks)
            allocation.append(tuple(banks))
        return tuple(allocation)

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
        alloc_by_level = {
            level: dict(zip(self.tensor_names, banks))
            for level, banks in zip(ALLOC_LEVELS, allocation)
        }

        def violating_tensor(level: str) -> Optional[int]:
            extents = self._extents_for(level, tile_factors)
            bank_words = self.accelerator.bank_words(level)
            for t_index, tensor in enumerate(self._tensors):
                capacity = alloc_by_level[level][tensor.name] * bank_words
                if tensor.footprint(extents) > capacity:
                    return t_index
            return None

        def hoist(t_index: int, source_slots: Sequence[int], dest_slot: int) -> bool:
            """Move one prime factor of a relevant dim up; False if stuck."""
            relevant = self._tensors[t_index].dims
            for slot in source_slots:
                candidates = [
                    i
                    for i, dim in enumerate(self.dims)
                    if dim in relevant and tile_factors[i][slot] > 1
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
            t_index = violating_tensor("L1")
            if t_index is None:
                break
            if not hoist(t_index, (_L1,), _L2):
                break  # tile already minimal; nothing more to shrink
        while True:
            t_index = violating_tensor("L2")
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
        movable = [
            dim for dim in self.dims if self._bounds[dim] > 1
        ]
        if not movable:
            return mapping
        dim = movable[int(rng.integers(0, len(movable)))]
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
        for dim in self.dims:
            total *= len(factorizations(self._bounds[dim], 4))
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
        factor_options = [factorizations(self._bounds[dim], 4) for dim in self.dims]
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


__all__ = ["MapSpace"]
