"""Tests for the mapping <-> vector codec."""

import math

import numpy as np
import pytest

from repro.core import MappingEncoder
from repro.mapspace import MapSpace
from repro.workloads import make_gemm, problem_by_name


class TestLengths:
    def test_cnn_layer_is_62(self, cnn_problem):
        # 7 dims * 8 + 3 tensors * 2 = 62, matching the paper exactly.
        assert MappingEncoder.for_problem(cnn_problem).length == 62

    def test_mttkrp_is_40(self, mttkrp_problem):
        # 4 dims * 8 + 4 tensors * 2 = 40, matching the paper exactly.
        assert MappingEncoder.for_problem(mttkrp_problem).length == 40

    def test_layout_slices_partition_vector(self, cnn_problem):
        layout = MappingEncoder.for_problem(cnn_problem).layout
        covered = set()
        for s in (layout.pid_slice, layout.tile_slice, layout.order_slice, layout.alloc_slice):
            indices = set(range(s.start, s.stop))
            assert not (covered & indices)
            covered |= indices
        assert covered == set(range(layout.length))

    def test_mapping_slice_excludes_pid(self, cnn_problem):
        layout = MappingEncoder.for_problem(cnn_problem).layout
        assert layout.mapping_slice.start == layout.pid_slice.stop
        assert layout.mapping_slice.stop == layout.length


class TestEncode:
    def test_shape_and_finite(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        vector = encoder.encode(cnn_space.sample(0), cnn_problem)
        assert vector.shape == (62,)
        assert np.isfinite(vector).all()

    def test_pid_section_is_log_bounds(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        vector = encoder.encode(cnn_space.sample(0), cnn_problem)
        expected = [np.log2(cnn_problem.bounds[d]) for d in encoder.dims]
        np.testing.assert_allclose(vector[encoder.layout.pid_slice], expected)

    def test_tile_section_is_log_factors(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        mapping = cnn_space.sample(3)
        vector = encoder.encode(mapping, cnn_problem)
        tiles = vector[encoder.layout.tile_slice]
        for index, dim in enumerate(encoder.dims):
            np.testing.assert_allclose(
                np.exp2(tiles[4 * index : 4 * index + 4]), mapping.factors(dim)
            )

    def test_alloc_section_fractions_sum_to_one(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        vector = encoder.encode(cnn_space.sample(1), cnn_problem)
        fractions = vector[encoder.layout.alloc_slice]
        n = len(encoder.tensors)
        assert fractions[:n].sum() == pytest.approx(1.0)
        assert fractions[n:].sum() == pytest.approx(1.0)

    def test_wrong_dims_raise(self, cnn_space, mttkrp_problem):
        encoder = MappingEncoder.for_problem(mttkrp_problem)
        with pytest.raises(ValueError):
            encoder.encode(cnn_space.sample(0), mttkrp_problem)

    def test_encode_is_the_batch_row_bitwise_at_a_prime_bound(self, accelerator):
        """1621 is the smallest integer whose ``np.log2`` and ``math.log2``
        differ (by one ulp); a separate scalar encoder once disagreed with
        the batch path there."""
        problem = make_gemm("prime_1621", m=1621, n=4, k=8)
        space = MapSpace(problem, accelerator)
        encoder = MappingEncoder.for_problem(problem)
        for seed in range(4):
            mapping = space.sample(seed)
            assert 1621 in mapping.factors("M")
            row = encoder.encode_batch([mapping], problem)[0]
            assert encoder.encode(mapping, problem).tobytes() == row.tobytes()


class TestDecodeRoundtrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_encode_decode_identity(self, cnn_space, cnn_problem, seed):
        """Decoding an encoded valid mapping must reproduce it exactly."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        mapping = cnn_space.sample(seed)
        vector = encoder.encode(mapping, cnn_problem)
        decoded = encoder.decode(vector, cnn_space)
        assert decoded == mapping

    def test_decode_arbitrary_vector_is_valid(self, cnn_space, cnn_problem):
        """Any real vector must decode to a *valid* mapping (projection)."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        rng = np.random.default_rng(0)
        for _ in range(10):
            vector = rng.normal(0, 3, size=encoder.length)
            decoded = encoder.decode(vector, cnn_space)
            assert cnn_space.is_member(decoded)

    def test_decode_perturbed_vector_stays_close(self, cnn_space, cnn_problem):
        """Small perturbations should not change the decoded mapping."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        mapping = cnn_space.sample(4)
        vector = encoder.encode(mapping, cnn_problem)
        decoded = encoder.decode(vector + 1e-6, cnn_space)
        assert decoded == mapping

    def test_decoded_loop_orders_are_shared_tuples(self, cnn_space, cnn_problem):
        """Two decodes that produce the same permutations return the same
        tuple objects, taken from the map space's shared order table."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        vector = encoder.encode(cnn_space.sample(4), cnn_problem)
        scaled = vector.copy()
        scaled[encoder.layout.order_slice] *= 3.0  # same ranks, other floats
        first = encoder.decode(vector, cnn_space)
        second = encoder.decode(scaled, cnn_space)
        assert first.loop_orders == second.loop_orders
        for left, right in zip(first.loop_orders, second.loop_orders):
            assert left is right

    def test_wrong_length_raises(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        with pytest.raises(ValueError):
            encoder.decode(np.zeros(10), cnn_space)

    def test_nan_tile_raises_naming_the_bound(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        vector = encoder.encode(cnn_space.sample(0), cnn_problem)
        vector[encoder.layout.tile_slice.start + 5] = np.nan  # dim 1, slot 1
        bound = cnn_problem.bounds[encoder.dims[1]]
        with pytest.raises(ValueError, match=rf"nan.*factorization of {bound}\b"):
            encoder.decode(vector, cnn_space)

    def test_infinite_tiles_clip_like_out_of_range_entries(self, cnn_space, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        vector = encoder.encode(cnn_space.sample(2), cnn_problem)
        tiles = encoder.layout.tile_slice
        infinite, clipped = vector.copy(), vector.copy()
        infinite[tiles.start : tiles.start + 4] = [np.inf, -np.inf, np.inf, -np.inf]
        clipped[tiles.start : tiles.start + 4] = [40.0, 0.0, 40.0, 0.0]
        decoded = encoder.decode(infinite, cnn_space)
        assert cnn_space.is_member(decoded)
        assert decoded == encoder.decode(clipped, cnn_space)

    def test_mttkrp_roundtrip(self, mttkrp_problem, accelerator):
        space = MapSpace(mttkrp_problem, accelerator)
        encoder = MappingEncoder.for_problem(mttkrp_problem)
        for seed in range(5):
            mapping = space.sample(seed)
            assert encoder.decode(encoder.encode(mapping, mttkrp_problem), space) == mapping


class TestGeneralization:
    def test_one_encoder_serves_all_cnn_problems(self, accelerator):
        """The same encoder must handle every problem of the algorithm."""
        encoder = MappingEncoder.for_problem(problem_by_name("ResNet_Conv3"))
        for name in ("ResNet_Conv4", "VGG_Conv2", "AlexNet_Conv2"):
            problem = problem_by_name(name)
            space = MapSpace(problem, accelerator)
            mapping = space.sample(0)
            vector = encoder.encode(mapping, problem)
            assert encoder.decode(vector, space) == mapping

    def test_pid_distinguishes_problems(self):
        encoder = MappingEncoder.for_problem(problem_by_name("ResNet_Conv3"))
        a = encoder.pid_vector(problem_by_name("ResNet_Conv3"))
        b = encoder.pid_vector(problem_by_name("ResNet_Conv4"))
        assert (a != b).any()


class TestEncodeBatch:
    def test_rows_equal_scalar_encoding(self, cnn_space, cnn_problem):
        """Round trip: row i of the batch == scalar encoding of mapping i."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        mappings = cnn_space.sample_many(16, seed=7)
        batch = encoder.encode_batch(mappings, cnn_problem)
        assert batch.shape == (16, encoder.length)
        for row, mapping in enumerate(mappings):
            np.testing.assert_array_equal(
                batch[row], encoder.encode(mapping, cnn_problem)
            )

    def test_order_ranks_match_the_loop_reference(self, cnn_space, cnn_problem):
        """Ranks looked up per order tuple equal the per-dimension loop
        they replaced, bitwise, and the pid section is ``log2`` bounds."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        mappings = cnn_space.sample_many(32, seed=11)
        batch = encoder.encode_batch(mappings, cnn_problem)
        n_dims = len(encoder.dims)
        positions = np.arange(n_dims, dtype=np.float64) / max(n_dims - 1, 1)
        reference = np.empty((len(mappings), 3, n_dims))
        for row, mapping in enumerate(mappings):
            for level, order in enumerate(mapping.loop_orders):
                for position, dim in enumerate(order):
                    reference[row, level, encoder.dims.index(dim)] = positions[position]
        assert batch[:, encoder.layout.order_slice].tobytes() == (
            reference.reshape(len(mappings), -1).tobytes()
        )
        bounds = cnn_problem.bounds
        assert batch[0, encoder.layout.pid_slice].tolist() == [
            math.log2(bounds[dim]) for dim in encoder.dims
        ]

    def test_module_level_function_matches_method(self, cnn_space, cnn_problem):
        from repro.core.encoding import encode_batch

        encoder = MappingEncoder.for_problem(cnn_problem)
        mappings = cnn_space.sample_many(4, seed=1)
        np.testing.assert_array_equal(
            encode_batch(encoder, mappings, cnn_problem),
            encoder.encode_batch(mappings, cnn_problem),
        )

    def test_batch_decodes_back_to_same_mappings(self, cnn_space, cnn_problem):
        """Each encoded row decodes to the mapping it came from (the scalar
        codec's round-trip property, preserved row-wise)."""
        encoder = MappingEncoder.for_problem(cnn_problem)
        mappings = cnn_space.sample_many(6, seed=9)
        batch = encoder.encode_batch(mappings, cnn_problem)
        for row, mapping in enumerate(mappings):
            assert encoder.decode(batch[row], cnn_space) == mapping

    def test_empty_batch_shape(self, cnn_problem):
        encoder = MappingEncoder.for_problem(cnn_problem)
        batch = encoder.encode_batch([], cnn_problem)
        assert batch.shape == (0, encoder.length)

    def test_mismatched_mapping_rejected(self, cnn_space, cnn_problem, mttkrp_problem):
        mttkrp_encoder = MappingEncoder.for_problem(mttkrp_problem)
        mapping = cnn_space.sample_many(1, seed=0)
        with pytest.raises(ValueError):
            mttkrp_encoder.encode_batch(mapping, mttkrp_problem)
