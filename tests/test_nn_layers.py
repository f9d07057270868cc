"""Tests for layers, containers, and the MLP."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, ReLU, Sequential, Tanh, Tensor


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_parameters(self):
        layer = Linear(4, 3, rng=0)
        params = layer.parameters()
        assert len(params) == 2
        assert params[0].shape == (4, 3)
        assert params[1].shape == (3,)

    def test_bias_starts_zero(self):
        assert (Linear(4, 3, rng=0).bias.data == 0).all()

    def test_init_schemes(self):
        he = Linear(100, 100, init="he", rng=0)
        xavier = Linear(100, 100, init="xavier", rng=0)
        assert he.weight.data.std() > xavier.weight.data.std() * 0.8

    def test_invalid_init_raises(self):
        with pytest.raises(ValueError):
            Linear(4, 3, init="magic")

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=7)
        b = Linear(4, 3, rng=7)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestActivations:
    def test_relu_clips_negative(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_tanh_bounds(self):
        out = Tanh()(Tensor(np.array([-100.0, 100.0])))
        np.testing.assert_allclose(out.data, [-1.0, 1.0])


class TestSequential:
    def test_applies_in_order(self):
        seq = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        out = seq(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)

    def test_collects_parameters(self):
        seq = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        assert len(seq.parameters()) == 4

    def test_len_and_iter(self):
        seq = Sequential(Linear(2, 2, rng=0), ReLU())
        assert len(seq) == 2
        assert len(list(seq)) == 2


class TestMLP:
    def test_paper_cnn_topology_sizes(self):
        # 62 inputs, 9 layers, 12 outputs (paper section 5.5)
        sizes = [62, 64, 256, 1024, 2048, 2048, 1024, 256, 64, 12]
        mlp = MLP(sizes, rng=0)
        out = mlp(Tensor(np.zeros((1, 62))))
        assert out.shape == (1, 12)

    def test_num_parameters(self):
        mlp = MLP([4, 8, 2], rng=0)
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_too_few_layers_raise(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            MLP([4, 4, 2], activation="softplus")

    def test_tanh_variant(self):
        mlp = MLP([4, 8, 2], activation="tanh", rng=0)
        assert mlp(Tensor(np.ones((1, 4)))).shape == (1, 2)

    def test_array_pass_rejects_unknown_module(self):
        """``infer``'s parity with the graph is pinned in
        ``tests/test_surrogate_pass_parity.py``."""
        mlp = MLP([4, 8, 2], rng=0)
        mlp.network.children[1] = Sequential()
        with pytest.raises(TypeError, match="Sequential"):
            mlp.infer(np.ones((1, 4)))


class TestStateDict:
    def test_roundtrip(self):
        a = MLP([4, 8, 2], rng=0)
        b = MLP([4, 8, 2], rng=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 4)))
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_shape_mismatch_raises(self):
        a = MLP([4, 8, 2], rng=0)
        b = MLP([4, 6, 2], rng=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_count_mismatch_raises(self):
        a = MLP([4, 8, 2], rng=0)
        b = MLP([4, 8, 8, 2], rng=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_zero_grad_clears_all(self):
        mlp = MLP([4, 8, 2], rng=0)
        loss = (mlp(Tensor(np.ones((2, 4)))) ** 2).sum()
        loss.backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())
