"""Bitwise parity of the array-only surrogate pass with the autograd graph.

``Surrogate.objective_and_gradient_batch`` and ``predict_whitened`` run on
the MLP's arrays (``MLP.infer`` / ``MLP.input_gradient``): no graph, no
weight gradients, no ``.grad`` writes.  The autograd code they replaced is
kept here verbatim as the reference, and the array pass must return
exactly its bits (``np.array_equal``) for every batch size, codec mode
and topology, including inputs whose pre-activations are exactly 0 or
negative.  See the surrogate pass contract in ``docs/BATCH_CONTRACTS.md``.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MappingEncoder, Surrogate
from repro.core.dataset import TargetCodec
from repro.core.normalize import Whitener
from repro.core.surrogate import DEFAULT_HIDDEN_LAYERS
from repro.nn import MLP, Tensor, no_grad

# ----------------------------------------------------------------------
# Reference: the autograd pass, verbatim
# ----------------------------------------------------------------------


def reference_objective_and_gradient(surrogate, whitened_inputs):
    """Graph forward, de-whitening in the graph, ``objective.sum().backward()``."""
    inputs = np.atleast_2d(np.asarray(whitened_inputs, dtype=np.float64))
    x = Tensor(inputs, requires_grad=True)
    output = surrogate.network(x)
    if surrogate.codec.mode == "edp":
        scaled = output.select(0) * surrogate.target_whitener.std[0]
        objective = scaled + surrogate.target_whitener.mean[0]
    else:
        e_index = surrogate.codec.total_energy_index
        c_index = surrogate.codec.cycles_index
        energy = (
            output.select(e_index) * surrogate.target_whitener.std[e_index]
            + surrogate.target_whitener.mean[e_index]
        )
        cycles = (
            output.select(c_index) * surrogate.target_whitener.std[c_index]
            + surrogate.target_whitener.mean[c_index]
        )
        objective = energy + cycles
    objective.sum().backward()
    assert x.grad is not None
    return objective.data.copy(), x.grad.copy()


def reference_predict_whitened(surrogate, whitened_inputs):
    """The ``no_grad`` graph forward."""
    with no_grad():
        output = surrogate.network(Tensor(np.atleast_2d(whitened_inputs)))
    return output.numpy()


# ----------------------------------------------------------------------
# Surrogates under test
# ----------------------------------------------------------------------

#: CNN-layer encoding: 62 inputs.
ENCODER = MappingEncoder(("N", "K", "C", "P", "Q", "R", "S"), ("Input", "Filter", "Output"))

#: name -> (hidden widths, activation, codec mode).
KINDS = {
    "mm-64x64-meta": ((64, 64), "relu", "meta"),
    "mm-64x64-edp": ((64, 64), "relu", "edp"),
    "default-meta": (DEFAULT_HIDDEN_LAYERS, "relu", "meta"),
    "default-edp": (DEFAULT_HIDDEN_LAYERS, "relu", "edp"),
    "tanh-meta": ((24, 16), "tanh", "meta"),
    "tanh-edp": ((24, 16), "tanh", "edp"),
}


def build_surrogate(kind):
    """A seeded surrogate with trained-looking parameters: random biases
    and whiteners, so no column is the identity."""
    hidden, activation, mode = KINDS[kind]
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    codec = TargetCodec(n_tensors=len(ENCODER.tensors), mode=mode)
    network = MLP([ENCODER.length, *hidden, codec.width], activation=activation, rng=rng)
    for parameter in network.parameters():
        if parameter.data.ndim == 1:
            parameter.data[...] = rng.normal(0.0, 0.1, size=parameter.data.shape)
    return Surrogate(
        network=network,
        encoder=ENCODER,
        codec=codec,
        input_whitener=Whitener(
            rng.normal(size=ENCODER.length), rng.uniform(0.5, 2.0, size=ENCODER.length)
        ),
        target_whitener=Whitener(
            rng.normal(size=codec.width), rng.uniform(0.5, 2.0, size=codec.width)
        ),
        algorithm="cnn-layer",
    )


#: One shared instance per kind, for the tests that change no parameter.
make_surrogate = functools.lru_cache(maxsize=None)(build_surrogate)


def assert_pass_matches(surrogate, inputs):
    values, gradients = surrogate.objective_and_gradient_batch(inputs)
    ref_values, ref_gradients = reference_objective_and_gradient(surrogate, inputs)
    assert values.shape == ref_values.shape
    assert gradients.shape == ref_gradients.shape
    assert np.array_equal(values, ref_values)
    assert np.array_equal(gradients, ref_gradients)
    assert np.array_equal(values, surrogate.predict_log2_norm_edp(inputs))


ROWS = (1, 2, 4, 8)


# ----------------------------------------------------------------------
# Objective and input gradient
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_batch_pass_is_bitwise_autograd(kind, rows):
    surrogate = make_surrogate(kind)
    rng = np.random.default_rng(rows)
    for _ in range(25):
        assert_pass_matches(surrogate, rng.normal(0.0, 1.5, size=(rows, ENCODER.length)))


@pytest.mark.parametrize("rows", ROWS)
def test_trained_surrogate_is_bitwise_autograd(trained_mm, cnn_space, cnn_problem, rows):
    """A surrogate fitted by the trainer, on encoded sampled mappings."""
    surrogate = trained_mm.surrogate
    for seed in range(5):
        mappings = cnn_space.sample_many(rows, seed=100 * rows + seed)
        assert_pass_matches(surrogate, surrogate.whiten_mappings(mappings, cnn_problem))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_single_point_wrapper_is_bitwise_autograd(kind):
    surrogate = make_surrogate(kind)
    x = np.random.default_rng(7).normal(size=ENCODER.length)
    value, gradient = surrogate.objective_and_gradient(x)
    ref_values, ref_gradients = reference_objective_and_gradient(surrogate, x[None, :])
    assert value == float(ref_values[0])
    assert np.array_equal(gradient, ref_gradients[0])


def _zero_preactivation_surrogate(kind, inputs, row, unit):
    """A fresh surrogate whose first-layer pre-activation ``[row, unit]`` is
    exactly 0: the bias is set to minus the very product the forward
    computes."""
    surrogate = build_surrogate(kind)
    first = surrogate.network.network.children[0]
    product = np.matmul(inputs, first.weight.data)
    first.bias.data[unit] = -product[row, unit]
    return surrogate


#: How the hypothesis test shapes each input row.
ROW_KINDS = ("drawn", "zero", "negated")


@settings(max_examples=60)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 8.0]),
    row_kinds=st.sampled_from(ROWS).flatmap(
        lambda rows: st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows)
    ),
    cancel=st.none() | st.tuples(st.integers(0, 7), st.integers(0, 63)),
)
def test_hypothesis_inputs_are_bitwise_autograd(kind, seed, scale, row_kinds, cancel):
    """Random scales (0 makes every pre-activation equal its bias), rows of
    exact zeros, negated rows (flipping which pre-activations are
    negative), and a first-layer pre-activation cancelled to exactly 0."""
    surrogate = make_surrogate(kind)
    rows = len(row_kinds)
    inputs = np.random.default_rng(seed).normal(size=(rows, ENCODER.length)) * scale
    for row, row_kind in enumerate(row_kinds):
        if row_kind == "zero":
            inputs[row] = 0.0
        elif row_kind == "negated":
            inputs[row] *= -1.0
    assert_pass_matches(surrogate, inputs)
    if cancel is not None:
        row, unit = cancel[0] % rows, cancel[1] % KINDS[kind][0][0]
        cancelled = _zero_preactivation_surrogate(kind, inputs, row, unit)
        first = cancelled.network.network.children[0]
        preactivation = np.matmul(inputs, first.weight.data) + first.bias.data
        assert preactivation[row, unit] == 0.0
        assert_pass_matches(cancelled, inputs)


def test_all_zero_input_with_zero_biases():
    """Zero input into zero biases: every ReLU pre-activation is exactly 0,
    so every mask is empty and the gradient is exactly 0."""
    surrogate = build_surrogate("default-meta")
    for parameter in surrogate.network.parameters():
        if parameter.data.ndim == 1:
            parameter.data[...] = 0.0
    inputs = np.zeros((4, ENCODER.length))
    assert_pass_matches(surrogate, inputs)
    _, gradients = surrogate.objective_and_gradient_batch(inputs)
    assert not gradients.any()


# ----------------------------------------------------------------------
# Prediction
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_predict_whitened_is_bitwise_autograd(kind):
    surrogate = make_surrogate(kind)
    rng = np.random.default_rng(11)
    vector = rng.normal(size=ENCODER.length)
    single = surrogate.predict_whitened(vector)
    assert single.shape == (1, surrogate.codec.width)
    assert np.array_equal(single, reference_predict_whitened(surrogate, vector))
    for rows in ROWS:
        batch = rng.normal(size=(rows, ENCODER.length))
        assert np.array_equal(
            surrogate.predict_whitened(batch), reference_predict_whitened(surrogate, batch)
        )


# ----------------------------------------------------------------------
# No weight-gradient tape
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["default-meta", "tanh-edp"])
def test_pass_writes_no_parameter_grad(kind):
    surrogate = build_surrogate(kind)
    inputs = np.random.default_rng(5).normal(size=(4, ENCODER.length))
    surrogate.objective_and_gradient_batch(inputs)
    surrogate.predict_whitened(inputs)
    assert all(parameter.grad is None for parameter in surrogate.network.parameters())


# ----------------------------------------------------------------------
# Items stacked on a leading axis (the lockstep cohort's pass)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["mm-64x64-meta", "mm-64x64-edp", "tanh-meta",
                                  "tanh-edp"])
@pytest.mark.parametrize("items", (1, 2, 8))
@pytest.mark.parametrize("rows", (1, 4))
def test_stacked_items_match_their_own_2d_pass(kind, items, rows):
    """``(G, R, D)`` items return, item by item, the bits of each item's
    own ``(R, D)`` pass: ``np.matmul`` runs one 2-D product per item."""
    surrogate = make_surrogate(kind)
    rng = np.random.default_rng(100 * items + rows)
    stacked = rng.normal(0.0, 1.5, size=(items, rows, ENCODER.length))
    stacked[0, 0] = 0.0  # a row of exact zeros
    values, gradients = surrogate.objective_and_gradient_batch(stacked)
    assert values.shape == (items, rows)
    assert gradients.shape == stacked.shape
    for item in range(items):
        own_values, own_gradients = surrogate.objective_and_gradient_batch(
            stacked[item].copy()
        )
        assert np.array_equal(values[item], own_values)
        assert np.array_equal(gradients[item], own_gradients)
