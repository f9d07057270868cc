"""Scalar <-> batched parity harness for the analytical cost model.

The vectorized backend (:mod:`repro.costmodel.batch`) is a rewrite of the
scalar model's reuse analysis, so these tests are the proof it is *exact*:

* a seeded property suite draws random valid mappings for **every** Table 1
  workload on **both** accelerator configurations and holds batched EDP to
  per-mapping ``evaluate(...).edp`` at rtol 1e-9;
* a hypothesis sweep over arbitrary ordered factorizations and loop orders
  exercises the corners random sampling rarely lands on — bound-1 loops in
  every slot (the nest-elision rule) and all-temporal/all-spatial splits;
* full-statistics checks (per-tensor/per-level accesses, NoC, cycles,
  utilization, meta vectors, codec targets) guard every field the batched
  path can feed downstream, not just the scalar objective.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TargetCodec
from repro.costmodel import (
    CostModel,
    algorithmic_minimum,
    compile_megabatch,
    evaluate_batch,
)
from repro.costmodel.accelerator import (
    MEMORY_LEVELS,
    default_accelerator,
    small_accelerator,
)
from repro.mapspace import MapSpace
from repro.mapspace.mapping import Mapping
from repro.utils import factorizations
from repro.workloads import (
    TABLE1_PROBLEMS,
    make_cnn_layer,
    make_conv1d,
    problem_by_name,
)

PARITY_RTOL = 1e-9

ACCELERATORS = {"paper-256pe": default_accelerator(), "small-16pe": small_accelerator()}

_PROBLEM_IDS = [p.name for p in TABLE1_PROBLEMS]


def _assert_stats_parity(scalar, batch_stats, index):
    """Every field of the scalar CostStats against one batch row."""
    row = batch_stats.stats_at(index)
    assert row.problem_name == scalar.problem_name
    assert row.spatial_pes == scalar.spatial_pes
    assert row.clock_ghz == scalar.clock_ghz
    by_key = {(r.tensor, r.level): r for r in scalar.records}
    assert len(row.records) == len(scalar.records)
    for record in row.records:
        reference = by_key[(record.tensor, record.level)]
        np.testing.assert_allclose(record.accesses, reference.accesses, rtol=PARITY_RTOL)
        np.testing.assert_allclose(record.energy_pj, reference.energy_pj, rtol=PARITY_RTOL)
    np.testing.assert_allclose(row.noc_energy_pj, scalar.noc_energy_pj, rtol=PARITY_RTOL)
    np.testing.assert_allclose(row.mac_energy_pj, scalar.mac_energy_pj, rtol=PARITY_RTOL)
    np.testing.assert_allclose(row.cycles, scalar.cycles, rtol=PARITY_RTOL)
    np.testing.assert_allclose(row.utilization, scalar.utilization, rtol=PARITY_RTOL)
    np.testing.assert_allclose(row.edp, scalar.edp, rtol=PARITY_RTOL)


@pytest.fixture(params=sorted(ACCELERATORS), scope="module")
def accel(request):
    return ACCELERATORS[request.param]


class TestSeededParityAllWorkloads:
    """Satellite requirement: every registered workload x both accelerator
    configs, N >= 64 random valid mappings, rtol 1e-9."""

    N_MAPPINGS = 64

    @pytest.mark.parametrize("problem", TABLE1_PROBLEMS, ids=_PROBLEM_IDS)
    def test_edp_parity(self, problem, accel):
        space = MapSpace(problem, accel)
        model = CostModel(accel)
        population = space.sample_many(self.N_MAPPINGS, seed=0xC0DEC)
        scalar = np.array([model.evaluate(m, problem).edp for m in population])
        batched = np.array(model.evaluate_many(population, problem))
        np.testing.assert_allclose(batched, scalar, rtol=PARITY_RTOL)

    @pytest.mark.parametrize("problem", TABLE1_PROBLEMS, ids=_PROBLEM_IDS)
    def test_full_stats_parity_on_sample(self, problem, accel):
        space = MapSpace(problem, accel)
        model = CostModel(accel)
        population = space.sample_many(4, seed=7)
        batch_stats = model.evaluate_batch(population, problem)
        for index, mapping in enumerate(population):
            _assert_stats_parity(
                model.evaluate(mapping, problem), batch_stats, index
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("problem", TABLE1_PROBLEMS, ids=_PROBLEM_IDS)
    def test_edp_parity_large_population(self, problem, accel):
        """The long sweep: N=256 per combination (slow lane only)."""
        space = MapSpace(problem, accel)
        model = CostModel(accel)
        population = space.sample_many(256, seed=0xBEEF)
        scalar = np.array([model.evaluate(m, problem).edp for m in population])
        np.testing.assert_allclose(
            evaluate_batch(accel, population, problem).edp, scalar,
            rtol=PARITY_RTOL,
        )


# ----------------------------------------------------------------------
# Hypothesis sweep: arbitrary structurally-valid mappings
# ----------------------------------------------------------------------

_EDGE_PROBLEM = make_cnn_layer("batch_edge", n=4, k=16, c=12, h=10, w=10, r=3, s=3)
_EDGE_ACCEL = default_accelerator()
_EDGE_MODEL = CostModel(_EDGE_ACCEL)


@st.composite
def structural_mappings(draw):
    """Any mapping whose factors multiply to the bounds — validity beyond
    that (capacity, PE count) is irrelevant to the cost model, so the sweep
    covers far more of the space than rejection sampling would."""
    dims = _EDGE_PROBLEM.dim_names
    bounds = _EDGE_PROBLEM.bounds
    tile = tuple(
        draw(st.sampled_from(factorizations(bounds[dim], 4))) for dim in dims
    )
    orders = tuple(tuple(draw(st.permutations(dims))) for _ in range(3))
    tensors = tuple(t.name for t in _EDGE_PROBLEM.tensors)
    return Mapping(
        dims=dims,
        tile_factors=tile,
        loop_orders=orders,
        tensors=tensors,
        allocation=((1,) * len(tensors), (1,) * len(tensors)),
    )


class TestHypothesisParity:
    @given(st.lists(structural_mappings(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_structural_mappings(self, mappings):
        scalar = np.array(
            [_EDGE_MODEL.evaluate(m, _EDGE_PROBLEM).edp for m in mappings]
        )
        batched = evaluate_batch(_EDGE_ACCEL, mappings, _EDGE_PROBLEM).edp
        np.testing.assert_allclose(batched, scalar, rtol=PARITY_RTOL)


# ----------------------------------------------------------------------
# Targeted edge cases: bound-1 elision and sliding-window tensors
# ----------------------------------------------------------------------


class TestEdgeCases:
    def _parity(self, problem, accel, mappings):
        model = CostModel(accel)
        batch_stats = evaluate_batch(accel, mappings, problem)
        for index, mapping in enumerate(mappings):
            _assert_stats_parity(model.evaluate(mapping, problem), batch_stats, index)

    @pytest.mark.parametrize("slot", range(4), ids=["dram", "l2", "spatial", "l1"])
    def test_whole_bound_in_one_slot(self, slot):
        """Every other slot is a bound-1 loop: the nest-elision rule's
        extreme case (the scalar nest drops all but one level's loops)."""
        dims = _EDGE_PROBLEM.dim_names
        tensors = tuple(t.name for t in _EDGE_PROBLEM.tensors)
        factors = []
        for dim in dims:
            tile = [1, 1, 1, 1]
            tile[slot] = _EDGE_PROBLEM.bounds[dim]
            factors.append(tuple(tile))
        mapping = Mapping(
            dims=dims,
            tile_factors=tuple(factors),
            loop_orders=(dims, dims[::-1], dims),
            tensors=tensors,
            allocation=((1,) * len(tensors), (1,) * len(tensors)),
        )
        self._parity(_EDGE_PROBLEM, _EDGE_ACCEL, [mapping])

    def test_trailing_bound1_relevant_loop(self):
        """A bound-1 loop over a *relevant* dim in the innermost position
        must not extend the fill product (elision semantics): distinguishes
        the masked-relevance kernel from a naive last-relevant scan."""
        dims = _EDGE_PROBLEM.dim_names
        tensors = tuple(t.name for t in _EDGE_PROBLEM.tensors)
        # All iteration at DRAM except K, which is fully temporal at L2;
        # DRAM's loop order puts K (bound 1 at DRAM) innermost.
        factors = []
        for dim in dims:
            bound = _EDGE_PROBLEM.bounds[dim]
            factors.append((1, bound, 1, 1) if dim == "K" else (bound, 1, 1, 1))
        order_k_last = tuple([d for d in dims if d != "K"] + ["K"])
        mapping = Mapping(
            dims=dims,
            tile_factors=tuple(factors),
            loop_orders=(order_k_last, dims, dims),
            tensors=tensors,
            allocation=((1,) * len(tensors), (1,) * len(tensors)),
        )
        self._parity(_EDGE_PROBLEM, _EDGE_ACCEL, [mapping])

    def test_sliding_window_conv1d(self):
        """The X+R compound-axis tensors of 1D convolution (W and R tile
        extents add along one axis) on the small accelerator."""
        problem = make_conv1d("batch_conv1d", w=32, r=5)
        accel = small_accelerator()
        space = MapSpace(problem, accel)
        self._parity(problem, accel, space.sample_many(32, seed=11))

    def test_spatial_overcommit_still_priced(self):
        """Mappings beyond the PE count are structurally evaluable (the
        space would reject them; the model must still agree with itself)."""
        dims = _EDGE_PROBLEM.dim_names
        tensors = tuple(t.name for t in _EDGE_PROBLEM.tensors)
        factors = []
        for dim in dims:
            bound = _EDGE_PROBLEM.bounds[dim]
            factors.append((1, 1, bound, 1))  # everything spatial
        mapping = Mapping(
            dims=dims,
            tile_factors=tuple(factors),
            loop_orders=(dims, dims, dims),
            tensors=tensors,
            allocation=((1,) * len(tensors), (1,) * len(tensors)),
        )
        self._parity(_EDGE_PROBLEM, _EDGE_ACCEL, [mapping])


# ----------------------------------------------------------------------
# Batch surfaces: meta vectors, codec targets, compile validation
# ----------------------------------------------------------------------


class TestBatchSurfaces:
    @pytest.fixture(scope="class")
    def cnn_batch(self, cnn_problem, accelerator, cost_model):
        space = MapSpace(cnn_problem, accelerator)
        population = space.sample_many(16, seed=3)
        return population, cost_model.evaluate_batch(population, cnn_problem)

    def test_meta_matrix_matches_meta_vectors(self, cnn_batch, cnn_problem, cost_model):
        population, batch_stats = cnn_batch
        order = tuple(t.name for t in cnn_problem.tensors)
        meta = batch_stats.meta_matrix(order)
        for index, mapping in enumerate(population):
            expected = cost_model.evaluate(mapping, cnn_problem).meta_vector(order)
            np.testing.assert_allclose(meta[index], expected, rtol=PARITY_RTOL)

    def test_meta_matrix_unknown_tensor_raises(self, cnn_batch):
        _, batch_stats = cnn_batch
        with pytest.raises(KeyError):
            batch_stats.meta_matrix(("NotATensor",))

    @pytest.mark.parametrize("mode", ["meta", "edp"])
    def test_from_stats_batch_matches_scalar_codec(
        self, cnn_batch, cnn_problem, cost_model, mode
    ):
        population, batch_stats = cnn_batch
        order = tuple(t.name for t in cnn_problem.tensors)
        codec = TargetCodec(n_tensors=len(order), mode=mode)
        bound = algorithmic_minimum(cnn_problem, cost_model.accelerator)
        rows = codec.from_stats_batch(batch_stats, bound, order)
        assert rows.shape == (len(population), codec.width)
        for index, mapping in enumerate(population):
            expected = codec.from_stats(
                cost_model.evaluate(mapping, cnn_problem), bound, order
            )
            np.testing.assert_allclose(rows[index], expected, rtol=PARITY_RTOL)

    def test_empty_batch(self, cnn_problem, accelerator, cost_model):
        assert cost_model.evaluate_many([], cnn_problem) == []
        assert evaluate_batch(accelerator, [], cnn_problem).edp.shape == (0,)

    def test_empty_batch_full_stats(self, cnn_problem, accelerator):
        """Regression: the full-statistics path used to die in the energy
        reshape on a zero-row batch; it must return a well-formed empty
        ``BatchCostStats`` instead."""
        stats = evaluate_batch(accelerator, [], cnn_problem)
        assert len(stats) == 0
        assert stats.accesses.shape[0] == 0
        for name in (
            "energies_pj",
            "memory_energy_pj",
            "noc_energy_pj",
            "total_energy_pj",
            "energy_j",
            "delay_s",
            "edp",
        ):
            assert getattr(stats, name).shape[0] == 0
        order = tuple(t.name for t in cnn_problem.tensors)
        assert stats.meta_matrix(order).shape == (0, 3 * len(order) + 3)

    def test_stats_at_rejects_negative_and_overflow(self, cnn_batch):
        """Regression: ``stats_at(-1)`` used to wrap around via numpy's
        negative indexing and silently serve the last row."""
        population, batch_stats = cnn_batch
        with pytest.raises(IndexError):
            batch_stats.stats_at(-1)
        with pytest.raises(IndexError):
            batch_stats.stats_at(len(population))

    def test_single_mapping_batch(self, cnn_problem, accelerator, cost_model):
        mapping = MapSpace(cnn_problem, accelerator).sample(5)
        (value,) = cost_model.evaluate_many([mapping], cnn_problem)
        np.testing.assert_allclose(
            value, cost_model.evaluate(mapping, cnn_problem).edp, rtol=PARITY_RTOL
        )

    def test_compile_rejects_wrong_dims(self, cnn_problem, mttkrp_problem, accelerator):
        mapping = MapSpace(mttkrp_problem, accelerator).sample(0)
        with pytest.raises(ValueError, match="do not match problem dims"):
            compile_megabatch([mapping], [cnn_problem])

    def test_compile_rejects_wrong_factor_product(self, cnn_problem, accelerator):
        mapping = MapSpace(cnn_problem, accelerator).sample(0)
        factors = list(mapping.factors("K"))
        factors[0] *= 2
        broken = mapping.with_tile_factors("K", factors)
        with pytest.raises(ValueError, match="multiply to"):
            compile_megabatch([broken], [cnn_problem])


class TestCompileRetention:
    """Compiling keeps no per-mapping state: a long-lived process pricing
    fresh mappings one lane at a time (annealing rounds below the serving
    cohort's prewarm floor) must not grow with the traffic."""

    FRESH = 3000
    LIMIT_BYTES = 64 * 1024

    def test_fresh_one_lane_compiles_retain_under_64_kib(self):
        problem = problem_by_name("ResNet_Conv4")
        warm, *fresh = MapSpace(problem, default_accelerator()).sample_many(
            self.FRESH + 1, seed=17
        )
        compile_megabatch([warm], [problem])  # the problem's tables exist now
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for mapping in fresh:
                compile_megabatch([mapping], [problem])
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < self.LIMIT_BYTES
