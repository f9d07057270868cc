"""Bitwise parity of the table-driven map space with its dict-driven original.

``MapSpace`` samples, checks membership, projects and moves on small integer
tables built once per space.  The implementations they replaced are kept
here as reference oracles: ``sample`` and ``_sample_candidate`` (a full
``Mapping`` and a ``validity_errors`` check per candidate), the
``validity_errors``-based ``is_member``, ``project`` with its dict-driven
repairs, ``random_neighbor`` and ``set_group``.  The table-driven code must
return exactly what they return (``==`` and ``repr``) and leave the random
stream exactly where they leave it.  Every Table 1 and transformer problem
runs on both accelerator configurations; hypothesis adds perturbed mappings
of every invalid kind.  See the map-space contract in
``docs/BATCH_CONTRACTS.md``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import CostModel
from repro.costmodel.accelerator import default_accelerator, small_accelerator
from repro.mapspace import MapSpace
from repro.mapspace.factors import (
    nearest_composition,
    nearest_factorization,
    sample_composition,
    sample_factorization,
    smallest_prime_factor,
)
from repro.mapspace.mapping import ALLOC_LEVELS, ORDER_LEVELS, Mapping
from repro.search.genetic import GeneticSearcher
from repro.utils import prod
from repro.utils.rng import ensure_rng
from repro.workloads import TABLE1_PROBLEMS, TRANSFORMER_PROBLEMS

PROBLEMS = TABLE1_PROBLEMS + TRANSFORMER_PROBLEMS
ACCELERATORS = {"default": default_accelerator(), "small": small_accelerator()}
CASES = [
    (problem, accel) for problem in PROBLEMS for accel in ACCELERATORS
]
CASE_IDS = [f"{problem.name}-{accel}" for problem, accel in CASES]
_SPACES = {}


def space_for(problem, accel):
    key = (problem.name, accel)
    if key not in _SPACES:
        _SPACES[key] = MapSpace(problem, ACCELERATORS[accel])
    return _SPACES[key]


# ----------------------------------------------------------------------
# Reference oracles: the pre-table implementations, verbatim
# ----------------------------------------------------------------------

_DRAM, _L2, _SPATIAL, _L1 = 0, 1, 2, 3


def reference_is_member(space, mapping):
    return not space.validity_errors(mapping)


def reference_sample(space, seed=None, max_tries=64):
    rng = ensure_rng(seed)
    candidate = None
    for attempt in range(max_tries):
        candidate = reference_sample_candidate(
            space, rng, proportional_alloc=attempt % 2 == 1
        )
        if reference_is_member(space, candidate):
            return candidate
    assert candidate is not None
    return reference_project(space, candidate)


def reference_sample_candidate(space, rng, proportional_alloc=False):
    bounds = space.problem.bounds
    tile_factors = []
    for dim in space.dims:
        factors = list(sample_factorization(bounds[dim], 4, rng))
        tile_factors.append(factors)
    reference_cap_spatial(space, tile_factors)
    orders = tuple(
        tuple(space.dims[i] for i in rng.permutation(len(space.dims)).tolist())
        for _ in ORDER_LEVELS
    )
    return Mapping(
        dims=space.dims,
        tile_factors=tuple(tuple(f) for f in tile_factors),
        loop_orders=orders,
        tensors=space.tensor_names,
        allocation=reference_sample_allocation(
            space, rng, tile_factors, proportional_alloc
        ),
    )


def reference_cap_spatial(space, tile_factors):
    while prod(f[_SPATIAL] for f in tile_factors) > space.accelerator.num_pes:
        index = max(
            range(len(tile_factors)), key=lambda i: tile_factors[i][_SPATIAL]
        )
        factors = tile_factors[index]
        prime = smallest_prime_factor(factors[_SPATIAL])
        factors[_SPATIAL] //= prime
        factors[_L2] *= prime


def reference_sample_allocation(space, rng, tile_factors, proportional):
    tensors = space.problem.tensors
    allocation = []
    for level in ALLOC_LEVELS:
        total = space.accelerator.banks(level)
        if not proportional:
            allocation.append(sample_composition(total, len(tensors), rng))
            continue
        extents = reference_extents_for(space, level, tile_factors)
        footprints = np.array(
            [max(t.footprint(extents), 1) for t in tensors], dtype=float
        )
        allocation.append(nearest_composition(total, len(tensors), footprints))
    return tuple(allocation)


def reference_extents_for(space, level, tile_factors):
    extents = {}
    for dim, factors in zip(space.dims, tile_factors):
        if level == "L1":
            extents[dim] = factors[_L1]
        else:
            extents[dim] = factors[_L1] * factors[_SPATIAL] * factors[_L2]
    return extents


def reference_project(space, mapping):
    bounds = space.problem.bounds
    tile_factors = [list(f) for f in mapping.tile_factors]
    for index, dim in enumerate(space.dims):
        bound = bounds[dim]
        if prod(tile_factors[index]) != bound:
            tile_factors[index] = list(
                nearest_factorization(bound, 4, tile_factors[index])
            )
    reference_cap_spatial(space, tile_factors)
    allocation = reference_repair_allocation(space, mapping)
    tile_factors = reference_repair_capacity(space, tile_factors, allocation)
    factors = tuple(
        original if list(original) == repaired else tuple(repaired)
        for original, repaired in zip(mapping.tile_factors, tile_factors)
    )
    if (
        factors == mapping.tile_factors
        and allocation == mapping.allocation
        and mapping.dims == space.dims
        and mapping.tensors == space.tensor_names
    ):
        return mapping
    return Mapping(
        dims=space.dims,
        tile_factors=factors,
        loop_orders=mapping.loop_orders,
        tensors=space.tensor_names,
        allocation=allocation,
    )


def reference_repair_allocation(space, mapping):
    allocation = []
    for level, banks in zip(ALLOC_LEVELS, mapping.allocation):
        total = space.accelerator.banks(level)
        if sum(banks) > total or any(b < 1 for b in banks):
            banks = nearest_composition(total, len(banks), banks)
        allocation.append(tuple(banks))
    return tuple(allocation)


def reference_repair_capacity(space, tile_factors, allocation):
    tensors = space.problem.tensors
    alloc_by_level = {
        level: dict(zip(space.tensor_names, banks))
        for level, banks in zip(ALLOC_LEVELS, allocation)
    }

    def violating_tensor(level):
        extents = reference_extents_for(space, level, tile_factors)
        bank_words = space.accelerator.bank_words(level)
        for t_index, tensor in enumerate(tensors):
            capacity = alloc_by_level[level][tensor.name] * bank_words
            if tensor.footprint(extents) > capacity:
                return t_index
        return None

    def hoist(t_index, source_slots, dest_slot):
        relevant = tensors[t_index].dims
        for slot in source_slots:
            candidates = [
                i
                for i, dim in enumerate(space.dims)
                if dim in relevant and tile_factors[i][slot] > 1
            ]
            if candidates:
                index = max(candidates, key=lambda i: tile_factors[i][slot])
                prime = smallest_prime_factor(tile_factors[index][slot])
                tile_factors[index][slot] //= prime
                tile_factors[index][dest_slot] *= prime
                return True
        return False

    while True:
        t_index = violating_tensor("L1")
        if t_index is None:
            break
        if not hoist(t_index, (_L1,), _L2):
            break
    while True:
        t_index = violating_tensor("L2")
        if t_index is None:
            break
        if not hoist(t_index, (_L2, _SPATIAL, _L1), _DRAM):
            break
    return tile_factors


def reference_with_tile_factors(mapping, dim, factors):
    updated = list(mapping.tile_factors)
    updated[mapping.dim_index(dim)] = tuple(int(f) for f in factors)
    return replace(mapping, tile_factors=tuple(updated))


def reference_with_loop_order(mapping, level, order):
    updated = list(mapping.loop_orders)
    updated[ORDER_LEVELS.index(level)] = tuple(order)
    return replace(mapping, loop_orders=tuple(updated))


def reference_with_allocation(mapping, level, banks):
    updated = list(mapping.allocation)
    updated[ALLOC_LEVELS.index(level)] = tuple(int(b) for b in banks)
    return replace(mapping, allocation=tuple(updated))


def reference_random_neighbor(space, mapping, seed=None, kind=None):
    rng = ensure_rng(seed)
    move = kind or space.MOVE_KINDS[int(rng.integers(0, len(space.MOVE_KINDS)))]
    moves = {
        "tile": _reference_move_tile,
        "spatial": _reference_move_spatial,
        "order": _reference_move_order,
        "alloc": _reference_move_alloc,
    }
    if move not in moves:
        raise ValueError(f"unknown move kind {move!r}")
    return reference_project(space, moves[move](space, mapping, rng))


def _reference_move_tile(space, mapping, rng):
    bounds = space.problem.bounds
    movable = [dim for dim in space.dims if bounds[dim] > 1]
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
    return reference_with_tile_factors(mapping, dim, factors)


def _reference_move_spatial(space, mapping, rng):
    dim = space.dims[int(rng.integers(0, len(space.dims)))]
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
    return reference_with_tile_factors(mapping, dim, factors)


def _reference_move_order(space, mapping, rng):
    if len(space.dims) < 2:
        return mapping
    level = ORDER_LEVELS[int(rng.integers(0, len(ORDER_LEVELS)))]
    order = list(mapping.loop_order(level))
    i, j = rng.choice(len(order), size=2, replace=False)
    order[int(i)], order[int(j)] = order[int(j)], order[int(i)]
    return reference_with_loop_order(mapping, level, order)


def _reference_move_alloc(space, mapping, rng):
    if len(space.tensor_names) < 2:
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
    return reference_with_allocation(mapping, level, banks)


def reference_set_group(space, mapping, group, value):
    kind, _, key = group.partition(":")
    if kind == "tile":
        updated = reference_with_tile_factors(mapping, key, value)
    elif kind == "order":
        updated = reference_with_loop_order(mapping, key, value)
    elif kind == "alloc":
        updated = reference_with_allocation(mapping, key, value)
    else:
        raise KeyError(f"unknown attribute group {group!r}")
    return reference_project(space, updated)


class ReferenceGeneticSearcher(GeneticSearcher):
    """The GA with its pre-table crossover and mutation operators."""

    def _crossover(self, parent_a, parent_b, rng):
        child = parent_a
        for group in self.space.attribute_groups():
            if rng.random() < 0.5:
                child = reference_set_group(
                    self.space, child, group, self.space.get_group(parent_b, group)
                )
        return child

    def _mutate(self, individual, rng):
        mutated = individual
        bounds = self.problem.bounds
        for group in self.space.attribute_groups():
            if rng.random() >= self.mutation_probability:
                continue
            kind, _, key = group.partition(":")
            if kind == "tile":
                value = sample_factorization(bounds[key], 4, rng)
            elif kind == "order":
                value = tuple(rng.permutation(list(self.space.dims)))
            else:
                value = sample_composition(
                    self.space.accelerator.banks(key), len(self.space.tensor_names), rng
                )
            mutated = reference_set_group(self.space, mutated, group, value)
        return mutated


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def assert_bitwise_equal(fresh, reference):
    """Equal values *and* equal leaf types (``np.str_`` != ``str`` here)."""
    assert fresh == reference
    assert repr(fresh) == repr(reference)


def assert_same_stream(rng_fresh, rng_reference):
    """Both generators sit at the same stream position."""
    assert rng_fresh.integers(0, 2**62) == rng_reference.integers(0, 2**62)


def outcome(call, *args):
    """``("ok", value)`` or ``("raised", type, message)`` of ``call(*args)``."""
    try:
        return ("ok", call(*args))
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(error), str(error))


def assert_same_outcome(fresh, reference):
    assert fresh[0] == reference[0], (fresh, reference)
    if fresh[0] == "ok":
        assert_bitwise_equal(fresh[1], reference[1])
    else:
        assert fresh[1:] == reference[1:]


def raw_candidates(space, seed, count):
    """Unrepaired candidates, both allocation modes: many are invalid."""
    rng = np.random.default_rng(seed)
    return [
        reference_sample_candidate(space, rng, proportional_alloc=bool(i % 2))
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Parity over every problem on both accelerators
# ----------------------------------------------------------------------


@pytest.mark.parametrize("problem,accel", CASES, ids=CASE_IDS)
class TestParityPerSpace:
    def test_sample_stream(self, problem, accel):
        """Sequential samples from one stream, the ``sample_many`` shape."""
        space = space_for(problem, accel)
        rng_fresh, rng_reference = (np.random.default_rng(11) for _ in range(2))
        for _ in range(12):
            fresh = space.sample(rng_fresh)
            assert_bitwise_equal(fresh, reference_sample(space, rng_reference))
            assert_same_stream(rng_fresh, rng_reference)

    @pytest.mark.parametrize("max_tries", [1, 2, 3])
    def test_sample_projects_the_last_candidate(self, problem, accel, max_tries):
        """Short budgets end in the projected fallback for tight spaces."""
        space = space_for(problem, accel)
        for seed in range(6):
            rng_fresh, rng_reference = (np.random.default_rng(seed) for _ in range(2))
            fresh = space.sample(rng_fresh, max_tries=max_tries)
            reference = reference_sample(space, rng_reference, max_tries=max_tries)
            assert_bitwise_equal(fresh, reference)
            assert_same_stream(rng_fresh, rng_reference)

    def test_sample_int_seeds(self, problem, accel):
        space = space_for(problem, accel)
        for seed in range(8):
            assert_bitwise_equal(space.sample(seed), reference_sample(space, seed))

    def test_is_member_and_project_on_raw_candidates(self, problem, accel):
        space = space_for(problem, accel)
        candidates = raw_candidates(space, 5, 24)
        assert any(not reference_is_member(space, c) for c in candidates)
        for candidate in candidates:
            assert space.is_member(candidate) == reference_is_member(space, candidate)
            assert_bitwise_equal(
                space.project(candidate), reference_project(space, candidate)
            )

    def test_project_returns_valid_input_itself(self, problem, accel):
        space = space_for(problem, accel)
        for seed in range(6):
            mapping = reference_sample(space, seed)
            assert space.is_member(mapping)
            assert space.project(mapping) is mapping

    @pytest.mark.parametrize("kind", [None, *MapSpace.MOVE_KINDS])
    def test_random_neighbor_walk(self, problem, accel, kind):
        space = space_for(problem, accel)
        rng_fresh, rng_reference = (np.random.default_rng(3) for _ in range(2))
        fresh = reference = reference_sample(space, 3)
        for _ in range(10):
            fresh = space.random_neighbor(fresh, rng_fresh, kind=kind)
            reference = reference_random_neighbor(
                space, reference, rng_reference, kind=kind
            )
            assert_bitwise_equal(fresh, reference)
            assert_same_stream(rng_fresh, rng_reference)

    def test_set_group_crossover(self, problem, accel):
        space = space_for(problem, accel)
        parents = [reference_sample(space, seed) for seed in range(4)]
        donors = raw_candidates(space, 9, 4)
        for child, donor in zip(parents, donors + parents[::-1]):
            for group in space.attribute_groups():
                value = space.get_group(donor, group)
                assert_bitwise_equal(
                    space.set_group(child, group, value),
                    reference_set_group(space, child, group, value),
                )


# ----------------------------------------------------------------------
# Perturbed mappings (hypothesis)
# ----------------------------------------------------------------------

PERTURBATIONS = (
    "bound_mismatch",
    "spatial_overflow",
    "overcommitted_banks",
    "l1_capacity",
    "l2_capacity",
    "starved_tensor",
    "renamed_dims",
    "renamed_tensors",
    "reordered_tensors",
)


def perturb(space, mapping, kind, rng):
    """``mapping`` broken in one way, the details drawn from ``rng``."""
    bounds = space.problem.bounds
    dims = space.dims
    index = int(rng.integers(0, len(dims)))
    dim = dims[index]
    some_dims = [
        dims[i]
        for i in rng.choice(len(dims), size=int(rng.integers(1, len(dims) + 1)),
                            replace=False).tolist()
    ]
    level = ALLOC_LEVELS[int(rng.integers(0, len(ALLOC_LEVELS)))]
    tensor = int(rng.integers(0, len(mapping.tensors)))
    if kind == "bound_mismatch":
        factors = list(mapping.tile_factors[index])
        slot = int(rng.integers(0, 4))
        scale = int(rng.integers(2, 8))
        if rng.random() < 0.5 and factors[slot] % scale == 0:
            factors[slot] //= scale
        else:
            factors[slot] *= scale
        return mapping.with_tile_factors(dim, factors)
    if kind == "spatial_overflow":
        for name in some_dims:
            mapping = mapping.with_tile_factors(name, (1, 1, bounds[name], 1))
        return mapping
    if kind == "overcommitted_banks":
        banks = list(mapping.allocation[ALLOC_LEVELS.index(level)])
        banks[tensor] += int(rng.integers(1, 41))
        return mapping.with_allocation(level, banks)
    if kind == "l1_capacity":  # whole dimensions into the per-PE tile
        for name in some_dims[:3]:
            mapping = mapping.with_tile_factors(name, (1, 1, 1, bounds[name]))
        return mapping
    if kind == "l2_capacity":  # whole dimensions into the shared tile
        for name in some_dims[:3]:
            spatial = math.gcd(mapping.factors(name)[_SPATIAL], bounds[name])
            mapping = mapping.with_tile_factors(
                name, (1, bounds[name] // spatial, spatial, 1)
            )
        return mapping
    if kind == "starved_tensor":  # one bank for one tensor
        n = len(space.tensor_names)
        banks = [1] * n
        banks[(tensor + 1) % n] = space.accelerator.banks(level) - (n - 1)
        return mapping.with_allocation(level, banks)
    if kind == "renamed_dims":
        rename = {d: f"{d}_" if d == dim else d for d in dims}
        return Mapping(
            dims=tuple(rename[d] for d in mapping.dims),
            tile_factors=mapping.tile_factors,
            loop_orders=tuple(
                tuple(rename[d] for d in order) for order in mapping.loop_orders
            ),
            tensors=mapping.tensors,
            allocation=mapping.allocation,
        )
    if kind == "renamed_tensors":
        tensors = tuple(
            f"{t}_" if i == tensor else t for i, t in enumerate(mapping.tensors)
        )
        return replace(mapping, tensors=tensors)
    if kind == "reordered_tensors":
        return replace(mapping, tensors=mapping.tensors[::-1])
    raise AssertionError(kind)


@settings(max_examples=300)
@given(
    case=st.sampled_from(CASES),
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=3),
    perturb_seed=st.integers(0, 2**32),
    move=st.sampled_from((None, *MapSpace.MOVE_KINDS)),
)
def test_perturbed_mappings_match_reference(case, seed, kinds, perturb_seed, move):
    space = space_for(*case)
    mapping = reference_sample(space, seed)
    rng = np.random.default_rng(perturb_seed)
    # Renames go last: the value perturbations address the space's names.
    for kind in sorted(set(kinds), key=PERTURBATIONS.index):
        mapping = perturb(space, mapping, kind, rng)
    member = space.is_member(mapping)
    assert member == (not space.validity_errors(mapping))
    fresh = outcome(space.project, mapping)
    assert_same_outcome(fresh, outcome(reference_project, space, mapping))
    if member:
        assert fresh[1] is mapping
    if fresh[0] == "ok" and space.is_member(fresh[1]):
        rng_fresh, rng_reference = (np.random.default_rng(seed) for _ in range(2))
        assert_bitwise_equal(
            space.random_neighbor(fresh[1], rng_fresh, kind=move),
            reference_random_neighbor(space, fresh[1], rng_reference, kind=move),
        )
        assert_same_stream(rng_fresh, rng_reference)


@pytest.mark.parametrize("kind", PERTURBATIONS)
def test_each_perturbation_kind_matches_reference(kind):
    """Every kind, every space, fixed draws; no kind is vacuous: each
    yields mappings both sides reject."""
    invalid = 0
    for problem, accel in CASES:
        space = space_for(problem, accel)
        rng = np.random.default_rng(len(kind))
        for seed in range(3):
            broken = perturb(space, reference_sample(space, seed), kind, rng)
            member = space.is_member(broken)
            assert member == reference_is_member(space, broken)
            assert_same_outcome(
                outcome(space.project, broken),
                outcome(reference_project, space, broken),
            )
            invalid += not member
    assert invalid >= len(CASES) // 2


# ----------------------------------------------------------------------
# GA mutation: interned loop orders, identical draws
# ----------------------------------------------------------------------


def test_random_loop_order_draws_like_permuting_names():
    dims = TABLE1_PROBLEMS[0].dim_names
    space = space_for(TABLE1_PROBLEMS[0], "default")
    for seed in range(500):
        rng_fresh, rng_reference = (np.random.default_rng(seed) for _ in range(2))
        fresh = space.random_loop_order(rng_fresh)
        assert fresh == tuple(rng_reference.permutation(list(dims)))
        assert all(type(name) is str for name in fresh)
        assert_same_stream(rng_fresh, rng_reference)


@pytest.mark.parametrize("name", ["ResNet_Conv4", "BERT_QKV"])
def test_genetic_offspring_match_reference_with_plain_str_orders(name):
    problem = next(p for p in PROBLEMS if p.name == name)
    space = space_for(problem, "default")
    model = CostModel(space.accelerator)
    config = dict(population_size=24, mutation_probability=0.3)
    fresh = GeneticSearcher(space, model, **config)
    reference = ReferenceGeneticSearcher(space, model, **config)
    fresh.reset(7, iterations=96)
    reference.reset(7, iterations=96)
    for _ in range(4):
        offspring = fresh.ask()
        expected = reference.ask()
        assert offspring == expected
        for mapping in offspring:
            for order in mapping.loop_orders:
                assert all(type(dim) is str for dim in order)
        values = [model.evaluate_edp(m, problem) for m in offspring]
        fresh.tell(offspring, values)
        reference.tell(expected, values)
    assert_same_stream(fresh._rng, reference._rng)
