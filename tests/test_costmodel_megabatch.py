"""Cross-problem megabatch parity: heterogeneous lanes, homogeneous answers.

The megabatch backend (:func:`repro.costmodel.batch.evaluate_megabatch`)
is the one batched kernel: it prices (mapping, problem) lanes over
*different* problems — different dim counts, tensor counts, and shapes —
in one padded/masked kernel pass, and :func:`evaluate_batch` is its
one-group case.  These tests hold it to the two contracts everything
upstream leans on:

* **bitwise lane independence**: a lane's statistics do not depend on
  which lanes and problems share its megabatch — a mixed union, the
  one-problem union of the same lanes (:func:`evaluate_batch`) and the
  lane priced alone agree bit for bit (the padding/masking layout is
  inert), and
* rtol 1e-9 parity with the scalar model for every Table 1 and
  transformer workload on both accelerator configurations, in mixed
  shuffled batches.

A hypothesis sweep drives conv and GEMM lanes (7-dim and 3-dim problems)
through one union to exercise heterogeneous dim-count padding, and the
wide-nest fallback path (bit-packed fills recovery disabled) is pinned
bitwise against the default path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.costmodel.batch as batch_mod
from repro.costmodel import (
    CostModel,
    compile_megabatch,
    evaluate_batch,
    evaluate_megabatch,
)
from repro.costmodel.batch import megabatch_shape_stats
from repro.costmodel.accelerator import default_accelerator, small_accelerator
from repro.mapspace import MapSpace
from repro.workloads import (
    TABLE1_PROBLEMS,
    TRANSFORMER_PROBLEMS,
    make_cnn_layer,
    make_conv1d,
    make_gemm,
    make_mttkrp,
)

PARITY_RTOL = 1e-9

ACCELERATORS = {"paper-256pe": default_accelerator(), "small-16pe": small_accelerator()}

ALL_PROBLEMS = tuple(TABLE1_PROBLEMS) + tuple(TRANSFORMER_PROBLEMS)


@pytest.fixture(params=sorted(ACCELERATORS), scope="module")
def accel(request):
    return ACCELERATORS[request.param]


def _mixed_lanes(problems, accel, per_problem, seed):
    """Shuffled (mappings, problems) lanes mixing every given problem."""
    mappings, lane_problems = [], []
    for problem in problems:
        space = MapSpace(problem, accel)
        for mapping in space.sample_many(per_problem, seed=seed):
            mappings.append(mapping)
            lane_problems.append(problem)
    order = np.random.RandomState(seed).permutation(len(mappings))
    return [mappings[i] for i in order], [lane_problems[i] for i in order]


class TestMixedParity:
    """The acceptance sweep: every workload, both accelerators, one union."""

    def test_bitwise_vs_homogeneous_batch(self, accel):
        """Each lane of a mixed union equals the same lane in its
        one-problem union, and the first lane of each problem equals
        itself priced alone: batchmates never move a lane's bits."""
        mappings, lane_problems = _mixed_lanes(ALL_PROBLEMS, accel, 4, seed=3)
        mega = evaluate_megabatch(accel, mappings, lane_problems)
        assert len(mega) == len(mappings)
        for g, problem in enumerate(mega.problems):
            lanes = mega.problem_lanes(g)
            assert all(lane_problems[i].name == problem.name for i in lanes)
            alone = evaluate_batch(accel, [mappings[lanes[0]]], problem)
            assert np.array_equal(mega.edp[lanes[:1]], alone.edp)
            assert np.array_equal(mega.cycles[lanes[:1]], alone.cycles)
            ref = evaluate_batch(accel, [mappings[i] for i in lanes], problem)
            nt = len(problem.tensors)
            assert np.array_equal(mega.accesses[lanes][:, :nt, :], ref.accesses)
            assert np.array_equal(mega.accesses[lanes][:, nt:, :], 0.0 * mega.accesses[lanes][:, nt:, :])
            assert np.array_equal(mega.noc_words[lanes], ref.noc_words)
            assert np.array_equal(mega.cycles[lanes], ref.cycles)
            assert np.array_equal(mega.utilization[lanes], ref.utilization)
            assert np.array_equal(mega.edp[lanes], ref.edp)

    def test_scalar_parity_all_workloads(self, accel):
        mappings, lane_problems = _mixed_lanes(ALL_PROBLEMS, accel, 3, seed=11)
        model = CostModel(accel)
        edp = model.evaluate_many_grouped(mappings, lane_problems)
        scalar = [model.evaluate(m, p).edp for m, p in zip(mappings, lane_problems)]
        np.testing.assert_allclose(edp, scalar, rtol=PARITY_RTOL)

    def test_problem_slice_bitwise(self, accel):
        """A mixed union's ``problem_slice`` equals the one-problem union
        of the same lanes, field by field."""
        mappings, lane_problems = _mixed_lanes(TABLE1_PROBLEMS[:3], accel, 5, seed=5)
        mega = evaluate_megabatch(accel, mappings, lane_problems)
        for g, problem in enumerate(mega.problems):
            lanes = mega.problem_lanes(g)
            ref = evaluate_batch(accel, [mappings[i] for i in lanes], problem)
            got = mega.problem_slice(g)
            assert got.problem_name == ref.problem_name
            assert got.tensor_names == ref.tensor_names
            assert np.array_equal(got.accesses, ref.accesses)
            assert np.array_equal(got.noc_words, ref.noc_words)
            assert np.array_equal(got.cycles, ref.cycles)
            assert np.array_equal(got.edp, ref.edp)

    def test_stats_at_matches_scalar(self, accel):
        mappings, lane_problems = _mixed_lanes(
            (TABLE1_PROBLEMS[0], TABLE1_PROBLEMS[-1]), accel, 3, seed=9
        )
        model = CostModel(accel)
        mega = model.evaluate_megabatch(mappings, lane_problems)
        for i, (mapping, problem) in enumerate(zip(mappings, lane_problems)):
            scalar = model.evaluate(mapping, problem)
            row = mega.stats_at(i)
            assert row.problem_name == scalar.problem_name
            np.testing.assert_allclose(row.edp, scalar.edp, rtol=PARITY_RTOL)
            by_key = {(r.tensor, r.level): r for r in scalar.records}
            assert len(row.records) == len(scalar.records)
            for record in row.records:
                ref = by_key[(record.tensor, record.level)]
                np.testing.assert_allclose(
                    record.accesses, ref.accesses, rtol=PARITY_RTOL
                )


class TestHeterogeneousDims:
    """Different dim counts in one union: conv (7 dims) next to GEMM (3)."""

    CONV = make_cnn_layer("mega_conv", n=2, k=8, c=6, h=8, w=8, r=3, s=3)
    GEMM = make_gemm("mega_gemm", m=24, n=16, k=32)
    CONV1D = make_conv1d("mega_1d", w=40, r=5)

    def test_three_way_dim_mix_bitwise(self, accel):
        problems = (self.CONV, self.GEMM, self.CONV1D)
        mappings, lane_problems = _mixed_lanes(problems, accel, 6, seed=17)
        mega = evaluate_megabatch(accel, mappings, lane_problems)
        assert mega.accesses.shape[1] == max(len(p.tensors) for p in problems)
        for g, problem in enumerate(mega.problems):
            lanes = mega.problem_lanes(g)
            ref = evaluate_batch(accel, [mappings[i] for i in lanes], problem)
            assert np.array_equal(mega.edp[lanes], ref.edp)
            assert np.array_equal(mega.cycles[lanes], ref.cycles)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hypothesis_conv_gemm_union(self, data):
        accel = small_accelerator()
        conv_space = MapSpace(self.CONV, accel)
        gemm_space = MapSpace(self.GEMM, accel)
        seeds = data.draw(
            st.lists(st.integers(0, 2**16), min_size=2, max_size=6),
            label="seeds",
        )
        lanes = []
        for i, seed in enumerate(seeds):
            if data.draw(st.booleans(), label=f"use_conv_{i}"):
                lanes.append((conv_space.sample(seed), self.CONV))
            else:
                lanes.append((gemm_space.sample(seed), self.GEMM))
        mappings = [m for m, _ in lanes]
        lane_problems = [p for _, p in lanes]
        mega = evaluate_megabatch(accel, mappings, lane_problems)
        model = CostModel(accel)
        for i, (mapping, problem) in enumerate(lanes):
            np.testing.assert_allclose(
                mega.edp[i], model.evaluate(mapping, problem).edp, rtol=PARITY_RTOL
            )

    def test_wide_nest_fallback_bitwise(self, accel, monkeypatch):
        """The masked-position fallback must agree with the bit-packed path."""
        problems = (self.CONV, self.GEMM)
        mappings, lane_problems = _mixed_lanes(problems, accel, 4, seed=23)
        mega = compile_megabatch(mappings, lane_problems)
        fast = batch_mod.evaluate_mega_compiled(accel, mega)
        monkeypatch.setattr(batch_mod, "_BITPACK_MAX_WIDTH", 0)
        slow = batch_mod.evaluate_mega_compiled(accel, mega)
        assert np.array_equal(fast.accesses, slow.accesses)
        assert np.array_equal(fast.noc_words, slow.noc_words)
        assert np.array_equal(fast.cycles, slow.cycles)
        assert np.array_equal(fast.edp, slow.edp)


class TestEdgesAndValidation:
    PROBLEM = make_cnn_layer("mega_edge", n=2, k=8, c=6, h=8, w=8, r=3, s=3)

    def test_empty_megabatch(self):
        accel = default_accelerator()
        mega = evaluate_megabatch(accel, [], [])
        assert len(mega) == 0
        assert mega.edp.shape == (0,)
        assert CostModel(accel).evaluate_many_grouped([], []) == []

    def test_single_lane(self):
        """A lane priced alone equals its row in a wider union."""
        accel = default_accelerator()
        mapping, *others = MapSpace(self.PROBLEM, accel).sample_many(5, seed=1)
        gemm = make_gemm("mega_single_gemm", m=8, n=16, k=8)
        wide = [mapping] + others + MapSpace(gemm, accel).sample_many(3, seed=1)
        lane_problems = [self.PROBLEM] * 5 + [gemm] * 3
        mega = evaluate_megabatch(accel, wide, lane_problems)
        alone = evaluate_megabatch(accel, [mapping], [self.PROBLEM])
        assert len(alone) == 1
        assert np.array_equal(alone.edp, mega.edp[:1])
        nt = len(self.PROBLEM.tensors)
        assert np.array_equal(alone.accesses, mega.accesses[:1, :nt, :])

    def test_misaligned_lanes_raise(self):
        accel = default_accelerator()
        mapping = MapSpace(self.PROBLEM, accel).sample(0)
        with pytest.raises(ValueError, match="misaligned"):
            compile_megabatch([mapping], [self.PROBLEM, self.PROBLEM])

    def test_wrong_dims_raise(self):
        accel = default_accelerator()
        gemm = make_gemm("mega_val_gemm", m=8, n=8, k=8)
        mapping = MapSpace(gemm, accel).sample(0)
        with pytest.raises(ValueError, match="do not match problem dims"):
            compile_megabatch([mapping], [self.PROBLEM])

    def test_wrong_factor_product_raises(self):
        accel = default_accelerator()
        mapping = MapSpace(self.PROBLEM, accel).sample(0)
        factors = list(mapping.factors("K"))
        factors[0] *= 2
        broken = mapping.with_tile_factors("K", factors)
        good = MapSpace(self.PROBLEM, accel).sample(1)
        with pytest.raises(ValueError, match="multiply to"):
            compile_megabatch([good, broken], [self.PROBLEM, self.PROBLEM])

    def test_stats_at_rejects_out_of_range(self):
        accel = default_accelerator()
        mappings = MapSpace(self.PROBLEM, accel).sample_many(3, seed=2)
        mega = evaluate_megabatch(accel, mappings, [self.PROBLEM] * 3)
        with pytest.raises(IndexError):
            mega.stats_at(-1)
        with pytest.raises(IndexError):
            mega.stats_at(3)

    def test_equal_problems_behind_different_objects_merge(self):
        accel = default_accelerator()
        twin = make_cnn_layer("mega_edge", n=2, k=8, c=6, h=8, w=8, r=3, s=3)
        mappings = MapSpace(self.PROBLEM, accel).sample_many(4, seed=4)
        mega = compile_megabatch(mappings, [self.PROBLEM, twin, self.PROBLEM, twin])
        assert len(mega.problems) == 1
        assert len(mega) == 4


class TestShapeStats:
    """``megabatch_shape_stats``: the kernel span's shape attributes."""

    CONV = make_cnn_layer("shape_conv", n=2, k=8, c=6, h=8, w=8, r=3, s=3)
    MTTKRP = make_mttkrp("shape_mttkrp", i=8, j=8, k=8, l=8)

    def test_empty(self):
        assert megabatch_shape_stats([]) == {
            "lanes": 0,
            "problems": 0,
            "union_dims": 0,
            "union_slots": 0,
            "padding_waste_ratio": 0.0,
        }

    def test_homogeneous_union_wastes_nothing(self):
        assert megabatch_shape_stats([self.CONV] * 5) == {
            "lanes": 5,
            "problems": 1,
            "union_dims": 7,
            "union_slots": 3,
            "padding_waste_ratio": 0.0,
        }

    def test_mixed_dim_and_slot_widths(self):
        # conv: 7 dims, 3 tensors; MTTKRP: 4 dims, 4 tensors.  Lanes are
        # padded to 7 + 4 cells; real cells are 7+3, 7+3 and 4+4 of 33.
        stats = megabatch_shape_stats([self.CONV, self.MTTKRP, self.CONV])
        assert stats["lanes"] == 3
        assert stats["problems"] == 2
        assert stats["union_dims"] == 7
        assert stats["union_slots"] == 4
        assert stats["padding_waste_ratio"] == pytest.approx(5 / 33)

    def test_decoded_copies_are_one_problem(self):
        """A shard decodes a fresh ``Problem`` per request; equal copies
        are one problem, as ``compile_megabatch`` lowers them."""
        from repro.serve.codec import problem_from_dict, problem_to_dict

        first, second = (
            problem_from_dict(problem_to_dict(self.CONV)) for _ in range(2)
        )
        assert first is not second
        stats = megabatch_shape_stats([first, second, first])
        assert stats["problems"] == 1
        mappings = MapSpace(self.CONV, small_accelerator()).sample_many(3, seed=0)
        assert len(compile_megabatch(mappings, [first, second, first]).problems) == 1
