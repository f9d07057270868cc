"""ReplayBuffer: target fidelity, reservoir bounds, holdout split, balance."""

import numpy as np
import pytest

from repro.core import Surrogate, generate_dataset
from repro.costmodel import CostModel
from repro.costmodel.accelerator import small_accelerator
from repro.costmodel.lower_bound import algorithmic_minimum
from repro.learn.replay import ReplayBuffer, ReplayConfig
from repro.mapspace import MapSpace
from repro.workloads import make_conv1d

ACCEL = small_accelerator()
MODEL = CostModel(ACCEL)
PROBLEM_A = make_conv1d("replay_a", w=32, r=5)
PROBLEM_B = make_conv1d("replay_b", w=48, r=3)


def _surrogate(mode: str = "meta") -> Surrogate:
    """An untrained surrogate: the buffer only uses its coordinate systems."""
    dataset = generate_dataset(
        "conv1d", ACCEL, 80, problems=(PROBLEM_A, PROBLEM_B), mode=mode, seed=0
    )
    return Surrogate.build(
        dataset.encoder,
        dataset.codec,
        dataset.input_whitener,
        dataset.target_whitener,
        "conv1d",
        hidden_layers=(8,),
        rng=0,
    )


def _priced(problem, count, seed):
    mappings = MapSpace(problem, ACCEL).sample_many(count, seed=seed)
    batch = MODEL.evaluate_batch(mappings, problem)
    return mappings, batch


class TestIngest:
    def test_batch_stats_observation(self):
        buffer = ReplayBuffer(_surrogate(), ACCEL)
        mappings, batch = _priced(PROBLEM_A, 40, seed=1)
        absorbed = buffer.ingest(PROBLEM_A, mappings, [float(v) for v in batch.edp], batch)
        assert absorbed == 40
        assert buffer.depth + buffer.holdout_depth == 40

    def test_scalar_stats_observation_matches_batch_path(self):
        """A finalize-tap (CostStats list) sample stores the same pair as
        the vectorized miss-tap path for the same mapping."""
        surrogate = _surrogate()
        via_batch = ReplayBuffer(surrogate, ACCEL)
        via_scalar = ReplayBuffer(surrogate, ACCEL)
        mappings, batch = _priced(PROBLEM_A, 4, seed=2)
        via_batch.ingest(PROBLEM_A, mappings, [float(v) for v in batch.edp], batch)
        via_scalar.ingest(
            PROBLEM_A,
            mappings,
            [float(v) for v in batch.edp],
            [MODEL.evaluate(m, PROBLEM_A) for m in mappings],
        )
        key = next(iter(via_batch._train))
        np.testing.assert_allclose(
            via_batch._train[key].x[:3], via_scalar._train[key].x[:3], rtol=1e-12
        )
        np.testing.assert_allclose(
            via_batch._train[key].y[:3], via_scalar._train[key].y[:3], rtol=1e-9
        )

    def test_holdout_truth_is_analytical_normalized_edp(self):
        buffer = ReplayBuffer(_surrogate(), ACCEL)
        mappings, batch = _priced(PROBLEM_A, 60, seed=3)
        buffer.ingest(PROBLEM_A, mappings, [float(v) for v in batch.edp], batch)
        _, truth = buffer.holdout_truth()
        bound = algorithmic_minimum(PROBLEM_A, ACCEL)
        expected = np.log2(np.asarray(batch.edp) / bound.edp + 1e-12)
        # Holdout rows are a subset of the ingested rows.
        assert truth.shape[0] == buffer.holdout_depth > 0
        for value in truth:
            assert np.min(np.abs(expected - value)) < 1e-6

    @pytest.mark.parametrize("mode", ["meta", "edp"])
    def test_bare_edp_skipped(self, mode):
        """The learner's tap always sends cost statistics; an observation
        without them is skipped whatever the codec mode."""
        buffer = ReplayBuffer(_surrogate(mode), ACCEL)
        mappings, batch = _priced(PROBLEM_A, 8, seed=4)
        absorbed = buffer.ingest(
            PROBLEM_A, mappings, [float(v) for v in batch.edp], None
        )
        assert absorbed == 0
        assert buffer.snapshot()["skipped"] == 8

    def test_wrong_algorithm_rejected(self):
        from repro.workloads import make_gemm

        buffer = ReplayBuffer(_surrogate(), ACCEL)
        problem = make_gemm("g", m=8, n=8, k=8)
        with pytest.raises(ValueError, match="algorithm"):
            buffer.ingest(problem, [], [], None)

    def test_empty_observation_is_noop(self):
        buffer = ReplayBuffer(_surrogate(), ACCEL)
        assert buffer.ingest(PROBLEM_A, [], [], None) == 0


class TestReservoir:
    def test_capacity_bounds_hot_problems(self):
        config = ReplayConfig(
            capacity_per_problem=16, holdout_capacity_per_problem=8, holdout_every=4
        )
        buffer = ReplayBuffer(_surrogate(), ACCEL, config)
        for seed in range(5):
            mappings, batch = _priced(PROBLEM_A, 50, seed=10 + seed)
            buffer.ingest(PROBLEM_A, mappings, [float(v) for v in batch.edp], batch)
        snap = buffer.snapshot()["problems"][PROBLEM_A.name]
        assert snap["train"] == 16
        assert snap["holdout"] == 8
        assert snap["seen"] == 250

    def test_rare_problem_not_crowded_out(self):
        config = ReplayConfig(capacity_per_problem=32, holdout_every=4)
        buffer = ReplayBuffer(_surrogate(), ACCEL, config)
        hot_maps, hot_batch = _priced(PROBLEM_A, 300, seed=20)
        buffer.ingest(PROBLEM_A, hot_maps, [float(v) for v in hot_batch.edp], hot_batch)
        rare_maps, rare_batch = _priced(PROBLEM_B, 10, seed=21)
        buffer.ingest(PROBLEM_B, rare_maps, [float(v) for v in rare_batch.edp], rare_batch)
        problems = buffer.snapshot()["problems"]
        assert problems[PROBLEM_B.name]["train"] > 0
        assert problems[PROBLEM_A.name]["train"] == 32

    def test_holdout_split_deterministic_and_disjoint(self):
        """Every k-th per-problem sample goes to holdout — by construction
        the stores partition the stream, so sizes must add up exactly."""
        config = ReplayConfig(
            capacity_per_problem=1000,
            holdout_capacity_per_problem=1000,
            holdout_every=5,
        )
        buffer = ReplayBuffer(_surrogate(), ACCEL, config)
        mappings, batch = _priced(PROBLEM_A, 100, seed=30)
        buffer.ingest(PROBLEM_A, mappings, [float(v) for v in batch.edp], batch)
        assert buffer.holdout_depth == 20  # indices 0, 5, 10, ...
        assert buffer.depth == 80


class TestSampling:
    def test_minibatch_shapes(self):
        surrogate = _surrogate()
        buffer = ReplayBuffer(surrogate, ACCEL)
        mappings, batch = _priced(PROBLEM_A, 40, seed=40)
        buffer.ingest(PROBLEM_A, mappings, [float(v) for v in batch.edp], batch)
        x, y = buffer.sample(12, rng=0)
        assert x.shape == (12, surrogate.encoder.length)
        assert y.shape == (12, surrogate.codec.width)

    def test_empty_buffer_samples_none(self):
        buffer = ReplayBuffer(_surrogate(), ACCEL)
        assert buffer.sample(8, rng=0) is None

    def test_sampling_balances_problems_not_traffic(self):
        """A problem with 10x the traffic gets ~the same minibatch share."""
        buffer = ReplayBuffer(_surrogate(), ACCEL)
        hot_maps, hot_batch = _priced(PROBLEM_A, 300, seed=41)
        buffer.ingest(PROBLEM_A, hot_maps, [float(v) for v in hot_batch.edp], hot_batch)
        rare_maps, rare_batch = _priced(PROBLEM_B, 30, seed=42)
        buffer.ingest(PROBLEM_B, rare_maps, [float(v) for v in rare_batch.edp], rare_batch)
        x, _ = buffer.sample(400, rng=1)
        # Rows are identifiable by problem: the encoding starts with the
        # problem's log2 dimension-bound prefix, which differs between the
        # two shapes.
        rare_rows = buffer._train[
            [k for k in buffer._train if buffer._names[k] == PROBLEM_B.name][0]
        ]
        rare_prefix = rare_rows.x[0][:2]
        rare_share = np.mean(np.all(np.isclose(x[:, :2], rare_prefix), axis=1))
        assert 0.35 < rare_share < 0.65

    def test_invalid_batch_size(self):
        buffer = ReplayBuffer(_surrogate(), ACCEL)
        with pytest.raises(ValueError):
            buffer.sample(0)


class TestConfigValidation:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ReplayConfig(capacity_per_problem=0)
        with pytest.raises(ValueError):
            ReplayConfig(holdout_capacity_per_problem=0)
        with pytest.raises(ValueError):
            ReplayConfig(holdout_every=1)
