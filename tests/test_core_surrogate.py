"""Tests for the differentiable surrogate: predictions, gradients, I/O."""

import numpy as np
import pytest

from repro.core import Surrogate
from repro.core.dataset import TargetCodec
from repro.core.encoding import MappingEncoder
from repro.core.normalize import Whitener
from repro.nn.layers import MLP


@pytest.fixture(scope="module")
def surrogate(request):
    """An untrained small surrogate with identity-ish whiteners."""
    encoder = MappingEncoder(("X", "R"), ("Input", "Filter", "Output"))
    codec = TargetCodec(n_tensors=3)
    input_whitener = Whitener(mean=np.zeros(encoder.length), std=np.ones(encoder.length))
    target_whitener = Whitener(mean=np.zeros(codec.width), std=np.ones(codec.width))
    return Surrogate.build(
        encoder, codec, input_whitener, target_whitener, "conv1d",
        hidden_layers=(16, 16), rng=0,
    )


class TestConstruction:
    def test_width_checks(self, surrogate):
        with pytest.raises(ValueError):
            Surrogate(
                network=surrogate.network,
                encoder=MappingEncoder(("X",), ("A", "B")),  # wrong input width
                codec=surrogate.codec,
                input_whitener=surrogate.input_whitener,
                target_whitener=surrogate.target_whitener,
                algorithm="conv1d",
            )


class TestPrediction:
    def test_batch_prediction_shape(self, surrogate):
        out = surrogate.predict_whitened(np.zeros((5, surrogate.encoder.length)))
        assert out.shape == (5, surrogate.codec.width)

    def test_single_row_promoted(self, surrogate):
        out = surrogate.predict_whitened(np.zeros(surrogate.encoder.length))
        assert out.shape == (1, surrogate.codec.width)

    def test_log_edp_is_energy_plus_cycles(self, surrogate):
        x = np.zeros((1, surrogate.encoder.length))
        raw = surrogate.predict_raw_targets(x)[0]
        log_edp = surrogate.predict_log2_norm_edp(x)[0]
        codec = surrogate.codec
        assert log_edp == pytest.approx(
            raw[codec.total_energy_index] + raw[codec.cycles_index]
        )


class TestInputGradient:
    def test_gradient_matches_finite_difference(self, surrogate):
        rng = np.random.default_rng(0)
        x = rng.normal(size=surrogate.encoder.length)
        objective, gradient = surrogate.objective_and_gradient(x)
        eps = 1e-6
        for index in rng.choice(len(x), size=6, replace=False):
            up = x.copy()
            up[index] += eps
            down = x.copy()
            down[index] -= eps
            fd = (
                surrogate.predict_log2_norm_edp(up)[0]
                - surrogate.predict_log2_norm_edp(down)[0]
            ) / (2 * eps)
            assert gradient[index] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_objective_matches_prediction(self, surrogate):
        x = np.random.default_rng(1).normal(size=surrogate.encoder.length)
        objective, _ = surrogate.objective_and_gradient(x)
        assert objective == pytest.approx(surrogate.predict_log2_norm_edp(x)[0])

    def test_gradient_respects_target_whitening(self, surrogate):
        """Scaling the target whitener's std must scale gradients."""
        x = np.random.default_rng(2).normal(size=surrogate.encoder.length)
        _, base_gradient = surrogate.objective_and_gradient(x)
        scaled = Surrogate(
            network=surrogate.network,
            encoder=surrogate.encoder,
            codec=surrogate.codec,
            input_whitener=surrogate.input_whitener,
            target_whitener=Whitener(
                mean=surrogate.target_whitener.mean,
                std=surrogate.target_whitener.std * 3.0,
            ),
            algorithm=surrogate.algorithm,
        )
        _, scaled_gradient = scaled.objective_and_gradient(x)
        np.testing.assert_allclose(scaled_gradient, base_gradient * 3.0, rtol=1e-9)


class TestMappingInterface:
    def test_whiten_and_predict_mapping(self, trained_mm, cnn_space, cnn_problem):
        mapping = cnn_space.sample(0)
        surrogate = trained_mm.surrogate
        whitened = surrogate.whiten_mapping(mapping, cnn_problem)
        assert whitened.shape == (surrogate.encoder.length,)
        edp = surrogate.predict_edp_mapping(mapping, cnn_problem)
        assert edp > 0

    def test_mapping_gradient_shape(self, trained_mm, cnn_space, cnn_problem):
        surrogate = trained_mm.surrogate
        objective, gradient = surrogate.mapping_gradient(cnn_space.sample(1), cnn_problem)
        assert np.isfinite(objective)
        assert gradient.shape == (surrogate.encoder.length,)


def _tanh_surrogate():
    """A seeded Tanh surrogate with non-trivial biases."""
    encoder = MappingEncoder(("X", "R"), ("Input", "Filter", "Output"))
    codec = TargetCodec(n_tensors=3)
    rng = np.random.default_rng(11)
    network = MLP([encoder.length, 16, 8, codec.width], activation="tanh", rng=rng)
    for parameter in network.parameters():
        if parameter.data.ndim == 1:
            parameter.data[...] = rng.normal(0.0, 0.5, size=parameter.data.shape)
    return Surrogate(
        network=network,
        encoder=encoder,
        codec=codec,
        input_whitener=Whitener(mean=np.zeros(encoder.length), std=np.ones(encoder.length)),
        target_whitener=Whitener(mean=np.zeros(codec.width), std=np.ones(codec.width)),
        algorithm="conv1d",
    )


class TestPersistence:
    def test_tanh_clone_keeps_its_activation(self):
        original = _tanh_surrogate()
        clone = original.clone()
        inputs = np.random.default_rng(0).normal(size=(6, original.encoder.length))
        np.testing.assert_array_equal(
            clone.predict_whitened(inputs), original.predict_whitened(inputs)
        )
        assert clone.network.activation == "tanh"

    def test_tanh_save_load_roundtrip_is_bitwise(self, tmp_path):
        original = _tanh_surrogate()
        path = tmp_path / "tanh.npz"
        original.save(path)
        loaded = Surrogate.load(path)
        inputs = np.random.default_rng(1).normal(size=(6, original.encoder.length))
        np.testing.assert_array_equal(
            loaded.predict_whitened(inputs), original.predict_whitened(inputs)
        )
        assert loaded.network.activation == "tanh"

    def test_archive_without_activation_loads_as_relu(self, surrogate, tmp_path):
        path = tmp_path / "old.npz"
        surrogate.save(path)
        with np.load(path) as data:
            entries = {key: data[key] for key in data.files if key != "activation"}
        np.savez_compressed(path, **entries)
        loaded = Surrogate.load(path)
        assert loaded.network.activation == "relu"
        inputs = np.random.default_rng(2).normal(size=(4, surrogate.encoder.length))
        np.testing.assert_array_equal(
            loaded.predict_whitened(inputs), surrogate.predict_whitened(inputs)
        )

    def test_save_load_roundtrip(self, trained_mm, cnn_space, cnn_problem, tmp_path):
        surrogate = trained_mm.surrogate
        path = tmp_path / "surrogate.npz"
        surrogate.save(path)
        loaded = Surrogate.load(path)
        mapping = cnn_space.sample(0)
        original = surrogate.predict_edp_mapping(mapping, cnn_problem)
        restored = loaded.predict_edp_mapping(mapping, cnn_problem)
        assert restored == pytest.approx(original)
        assert loaded.algorithm == surrogate.algorithm


class TestBatchedPaths:
    def test_objective_and_gradient_batch_matches_scalar(self, surrogate):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(5, surrogate.encoder.length))
        values, gradients = surrogate.objective_and_gradient_batch(inputs)
        assert values.shape == (5,)
        assert gradients.shape == inputs.shape
        for row in range(5):
            value, gradient = surrogate.objective_and_gradient(inputs[row])
            assert values[row] == pytest.approx(value)
            np.testing.assert_allclose(gradients[row], gradient, rtol=1e-10)

    def test_scalar_wrapper_shapes(self, surrogate):
        rng = np.random.default_rng(4)
        x = rng.normal(size=surrogate.encoder.length)
        value, gradient = surrogate.objective_and_gradient(x)
        assert isinstance(value, float)
        assert gradient.shape == x.shape

    def test_predict_edp_many_matches_scalar(self, trained_mm, cnn_space, cnn_problem):
        mappings = cnn_space.sample_many(8, seed=2)
        batched = trained_mm.surrogate.predict_edp_many(mappings, cnn_problem)
        assert batched.shape == (8,)
        for mapping, value in zip(mappings, batched):
            assert value == pytest.approx(
                trained_mm.surrogate.predict_edp_mapping(mapping, cnn_problem)
            )

    def test_predict_edp_many_empty(self, trained_mm, cnn_problem):
        assert trained_mm.surrogate.predict_edp_many([], cnn_problem).shape == (0,)

    def test_whiten_mappings_rows_match(self, trained_mm, cnn_space, cnn_problem):
        mappings = cnn_space.sample_many(4, seed=6)
        stacked = trained_mm.surrogate.whiten_mappings(mappings, cnn_problem)
        for row, mapping in enumerate(mappings):
            np.testing.assert_array_equal(
                stacked[row],
                trained_mm.surrogate.whiten_mapping(mapping, cnn_problem),
            )
