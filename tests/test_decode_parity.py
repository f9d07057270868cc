"""Bitwise parity of table-driven rounding with the scalar reference scan.

``nearest_factorization`` and ``MappingEncoder.decode`` pick the nearest
ordered factorization from cached ``math.log2`` tables with a vectorized
distance and a first-minimum rule.  The scalar scan and per-dimension
decode they replaced are kept here verbatim as reference oracles, and the
table-driven code must return exactly what they return: equal values of
the same Python types (``repr`` equality), including every exact tie.
See the decode contract in ``docs/BATCH_CONTRACTS.md``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MappingEncoder
from repro.costmodel.accelerator import default_accelerator
from repro.mapspace import MapSpace
from repro.mapspace import factors as factors_module
from repro.mapspace.factors import (
    nearest_composition,
    nearest_compositions,
    nearest_factorization,
)
from repro.mapspace.mapping import ALLOC_LEVELS, ORDER_LEVELS, Mapping
from repro.utils import factorizations
from repro.workloads import TABLE1_PROBLEMS, TRANSFORMER_PROBLEMS

#: Integers below 65536 whose ``np.log2`` differs from ``math.log2`` by one
#: ulp; the tables must hold the ``math.log2`` values.
NP_LOG2_MISMATCHES = (1621, 3242, 6484, 7957, 12968, 15914, 25936, 28599,
                      31828, 51872, 57198, 57803, 63656)
PRIMES = (2, 3, 5, 7, 251, 1021, 2039, 4093)


# ----------------------------------------------------------------------
# Reference oracles: the pre-table implementations, verbatim
# ----------------------------------------------------------------------


def reference_nearest_factorization(n, parts, target):
    """The scalar scan: early break, strict ``<``, first option wins."""
    if len(target) != parts:
        raise ValueError(f"target has {len(target)} parts, expected {parts}")
    logs = [math.log2(max(float(t), 1e-9)) for t in target]
    best = ()
    best_distance = math.inf
    for option in factorizations(n, parts):
        distance = 0.0
        for value, want in zip(option, logs):
            delta = math.log2(value) - want
            distance += delta * delta
            if distance >= best_distance:
                break
        if distance < best_distance:
            best_distance = distance
            best = option
    return best


def reference_project(space, mapping):
    """``MapSpace.project`` before it reused its input's tuples."""
    tile_factors = [list(f) for f in mapping.tile_factors]
    for index, dim in enumerate(space.dims):
        bound = space.problem.bounds[dim]
        if math.prod(tile_factors[index]) != bound:
            tile_factors[index] = list(
                reference_nearest_factorization(bound, 4, tile_factors[index])
            )
    space._cap_spatial(tile_factors)
    allocation = space._repair_allocation(mapping)
    tile_factors = space._repair_capacity(tile_factors, allocation)
    return Mapping(
        dims=space.dims,
        tile_factors=tuple(tuple(f) for f in tile_factors),
        loop_orders=mapping.loop_orders,
        tensors=space.tensor_names,
        allocation=allocation,
    )


def reference_decode(encoder, vector, space):
    """The per-dimension decode: one scan and one argsort per section."""
    vector = np.asarray(vector, dtype=np.float64)
    bounds = space.problem.bounds
    n_dims, n_tensors = len(encoder.dims), len(encoder.tensors)
    tile_section = vector[encoder.layout.tile_slice]
    tile_factors = []
    for index, dim in enumerate(encoder.dims):
        logs = tile_section[4 * index : 4 * index + 4]
        target = np.exp2(np.clip(logs, 0.0, 40.0))
        tile_factors.append(reference_nearest_factorization(bounds[dim], 4, target))
    order_section = vector[encoder.layout.order_slice]
    loop_orders = []
    for level_index in range(len(ORDER_LEVELS)):
        ranks = order_section[level_index * n_dims : (level_index + 1) * n_dims]
        loop_orders.append(
            tuple(encoder.dims[i] for i in np.argsort(ranks, kind="stable"))
        )
    alloc_section = vector[encoder.layout.alloc_slice]
    allocation = []
    for level_index, level in enumerate(ALLOC_LEVELS):
        fractions = alloc_section[
            level_index * n_tensors : (level_index + 1) * n_tensors
        ]
        total = space.accelerator.banks(level)
        allocation.append(nearest_composition(total, n_tensors, fractions))
    candidate = Mapping(
        dims=encoder.dims,
        tile_factors=tuple(tile_factors),
        loop_orders=tuple(loop_orders),
        tensors=encoder.tensors,
        allocation=tuple(allocation),
    )
    return reference_project(space, candidate)


def assert_bitwise_equal(fresh, reference):
    """Equal values *and* equal leaf types (``np.int64`` != ``int`` here)."""
    assert fresh == reference
    assert repr(fresh) == repr(reference)


# ----------------------------------------------------------------------
# nearest_factorization
# ----------------------------------------------------------------------

_N = st.one_of(
    st.integers(min_value=1, max_value=4096),
    st.sampled_from(PRIMES + NP_LOG2_MISMATCHES),
)
#: Targets: log-uniform factors, exact small powers/divisors (where exact
#: ties live), and non-positive values (floored at 1e-9 by both paths).
_TARGET = st.one_of(
    st.floats(min_value=-4.0, max_value=16.0).map(lambda x: 2.0 ** x),
    st.sampled_from((1.0, 2.0, 3.0, 4.0, 8.0, 1621.0, 2.0 ** 0.5, 0.0, -3.0)),
)


@given(
    n=_N,
    parts=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_table_scan_matches_reference(n, parts, data):
    target = data.draw(st.lists(_TARGET, min_size=parts, max_size=parts))
    assert nearest_factorization(n, parts, target) == (
        reference_nearest_factorization(n, parts, target)
    )


@pytest.mark.parametrize("n", NP_LOG2_MISMATCHES)
def test_tables_hold_math_log2_values(n):
    for parts in (1, 2, 4):
        options, logs, _, _ = factors_module._factorization_table((n,), parts)
        assert options == factorizations(n, parts)
        expected = [[math.log2(v) for v in option] for option in options]
        assert logs.tolist() == expected
        target = [float(v) for v in options[len(options) // 2]]
        assert nearest_factorization(n, parts, target) == (
            reference_nearest_factorization(n, parts, target)
        )


@pytest.mark.parametrize(
    "n, parts, target, expected",
    [
        # Exact float ties: the first option in enumeration order wins.
        (4, 2, (1.0, 2.0), (1, 4)),  # (1,4) and (2,2) both at distance 1
        (4, 2, (2.0, 1.0), (2, 2)),  # (2,2) and (4,1) both at distance 1
        (8, 2, (2.0, 2.0), (2, 4)),  # (2,4) and (4,2) both at distance 1
        (6, 3, (1.0, 1.0, 1.0), (1, 2, 3)),
        # A tie in real arithmetic that float rounding breaks: log2(sqrt 2)
        # rounds up to 0.5000000000000001, so (2,2) is strictly nearer.
        (4, 2, (math.sqrt(2), 2 * math.sqrt(2)), (2, 2)),
    ],
)
def test_log_space_ties(n, parts, target, expected):
    assert reference_nearest_factorization(n, parts, target) == expected
    assert nearest_factorization(n, parts, target) == expected


# ----------------------------------------------------------------------
# MappingEncoder.decode
# ----------------------------------------------------------------------

_ACCELERATOR = default_accelerator()
PARITY_PROBLEMS = TABLE1_PROBLEMS + TRANSFORMER_PROBLEMS


def _perturbed_encodings(encoder, space, seed):
    """Encoded samples pushed off the lattice by growing noise, plus
    vectors that clip (far outside [0, 40]) and exact-tie vectors."""
    rng = np.random.default_rng(seed)
    mappings = space.sample_many(4, seed=seed)
    base = encoder.encode_batch(mappings, space.problem)
    searchable = encoder.layout.mapping_slice
    vectors = [base]
    for scale in (0.05, 0.5, 1.5, 4.0):
        noisy = base.copy()
        noisy[:, searchable] += rng.normal(0.0, scale, size=noisy[:, searchable].shape)
        vectors.append(noisy)
    extreme = base.copy()
    extreme[:, encoder.layout.tile_slice] = rng.choice(
        (-np.inf, -60.0, 45.0, np.inf), size=extreme[:, encoder.layout.tile_slice].shape
    )
    vectors.append(extreme)
    ties = base.copy()
    ties[:, encoder.layout.tile_slice] = rng.integers(
        0, 3, size=ties[:, encoder.layout.tile_slice].shape
    )
    ties[:, encoder.layout.order_slice] = 0.5
    vectors.append(ties)
    return np.concatenate(vectors)


@pytest.mark.parametrize("problem", PARITY_PROBLEMS, ids=[p.name for p in PARITY_PROBLEMS])
def test_decode_matches_reference(problem):
    space = MapSpace(problem, _ACCELERATOR)
    encoder = MappingEncoder.for_problem(problem)
    for vector in _perturbed_encodings(encoder, space, seed=len(problem.name)):
        assert_bitwise_equal(
            encoder.decode(vector, space), reference_decode(encoder, vector, space)
        )


@pytest.mark.parametrize("problem", PARITY_PROBLEMS[:2] + PARITY_PROBLEMS[6:7],
                         ids=lambda p: p.name)
def test_project_matches_reference(problem):
    """A valid mapping projects to itself; an off-lattice, over-committed
    one projects to exactly what the old projection built."""
    space = MapSpace(problem, _ACCELERATOR)
    rng = np.random.default_rng(7)
    for mapping in space.sample_many(6, seed=3):
        assert space.project(mapping) is mapping
        broken = mapping.with_tile_factors(
            space.dims[0], [int(v) for v in rng.integers(1, 9, size=4)]
        ).with_allocation("L1", [64] * len(space.tensor_names))
        assert_bitwise_equal(space.project(broken), reference_project(space, broken))


def test_sample_loop_orders_are_plain_str_from_the_same_stream():
    space = MapSpace(TABLE1_PROBLEMS[0], _ACCELERATOR)
    for mapping in space.sample_many(8, seed=5):
        for order in mapping.loop_orders:
            assert all(type(dim) is str for dim in order)
    # Permuting indices draws what permuting the names drew, and leaves
    # each generator in the same state.
    for seed in range(20):
        by_name, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        names = by_name.permutation(list(space.dims))
        indices = by_index.permutation(len(space.dims))
        assert tuple(names) == tuple(space.dims[i] for i in indices)
        assert by_name.integers(0, 2**32) == by_index.integers(0, 2**32)


# ----------------------------------------------------------------------
# Row-batched decode: (R, L) rows, one space per row
# ----------------------------------------------------------------------

CNN_LAYERS = tuple(p for p in TABLE1_PROBLEMS if p.algorithm == "cnn-layer")


def _row_mix(encoder, seed):
    """Perturbed, clipped, ±inf and tied rows of every CNN layer, shuffled."""
    rows, spaces = [], []
    for index, problem in enumerate(CNN_LAYERS):
        space = MapSpace(problem, _ACCELERATOR)
        vectors = _perturbed_encodings(encoder, space, seed=10 * seed + index)
        rows.append(vectors)
        spaces.extend([space] * len(vectors))
    order = np.random.default_rng(seed).permutation(len(spaces))
    return np.concatenate(rows)[order], [spaces[i] for i in order]


@pytest.mark.parametrize("seed", range(4))
def test_row_decode_matches_one_row_decode(seed):
    """Every row of a mixed-layer decode equals, by ``==`` and ``repr``,
    the row decoded alone on a space of its own (no shared intern table),
    whatever its batchmates; every fourth row also equals the reference."""
    encoder = MappingEncoder.for_problem(CNN_LAYERS[0])
    rows, spaces = _row_mix(encoder, seed)
    rng = np.random.default_rng(seed)
    start = 0
    while start < len(rows):
        size = int(rng.integers(1, 17))
        block = slice(start, start + size)
        decoded = encoder.decode(rows[block], spaces[block])
        assert len(decoded) == len(rows[block])
        for offset, (row, space, mapping) in enumerate(
            zip(rows[block], spaces[block], decoded)
        ):
            alone = encoder.decode(row, MapSpace(space.problem, _ACCELERATOR))
            assert_bitwise_equal(mapping, alone)
            if (start + offset) % 4 == 0:
                assert_bitwise_equal(mapping, reference_decode(encoder, row, space))
        start += size


def test_row_decode_of_one_problem_and_empty_rows():
    encoder = MappingEncoder.for_problem(CNN_LAYERS[1])
    space = MapSpace(CNN_LAYERS[1], _ACCELERATOR)
    rows = _perturbed_encodings(encoder, space, seed=3)[:6]
    assert encoder.decode(rows, [space] * 6) == [
        encoder.decode(row, space) for row in rows
    ]
    assert encoder.decode(rows[:0], []) == []
    with pytest.raises(ValueError, match="spaces"):
        encoder.decode(rows, [space])


def test_row_decode_nan_row_raises_naming_the_bound():
    encoder = MappingEncoder.for_problem(CNN_LAYERS[0])
    rows, spaces = _row_mix(encoder, 0)
    rows, spaces = rows[:5].copy(), spaces[:5]
    rows[3, encoder.layout.tile_slice.start + 9] = np.nan  # dim 2, slot 1
    bound = spaces[3]._dim_bounds[2]
    with pytest.raises(ValueError, match=rf"nan.*factorization of {bound}\b"):
        encoder.decode(rows, spaces)


def test_row_compositions_match_the_scalar_rounding():
    """``nearest_compositions`` is, row by row, ``nearest_composition``:
    zero, negative, tied and wide-ranging fractions over several totals."""
    rng = np.random.default_rng(0)
    for parts in (1, 2, 3, 4, 5):
        for scale in (1e-3, 0.3, 2.0, 50.0, 1e6):
            targets = rng.normal(0.3, scale, size=(200, parts))
            targets[::7] = 0.0
            targets[1::11] = -1.0
            targets[2::13] = rng.integers(0, 3, size=targets[2::13].shape)
            totals = rng.choice([parts, 7, 16, 64], size=len(targets))
            rows = nearest_compositions(totals, targets)
            for total, target, row in zip(totals.tolist(), targets, rows):
                assert_bitwise_equal(row, nearest_composition(total, parts, target))
    with pytest.raises(ValueError, match="not finite"):
        nearest_compositions([16], np.array([[np.nan, 1.0, 1.0]]))
