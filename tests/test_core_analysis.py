"""Tests for surrogate fidelity diagnostics."""

import numpy as np
import pytest

from repro.core import surrogate_fidelity
from repro.core.analysis import spearman_rank_correlation
from repro.costmodel import CostModel
from repro.mapspace import MapSpace


def _reference_spearman(a, b):
    """Quadratic-time tie-aware reference (textbook fractional ranks)."""
    def ranks(values):
        values = np.asarray(values, dtype=float)
        out = np.empty(len(values))
        for i, v in enumerate(values):
            less = np.sum(values < v)
            equal = np.sum(values == v)
            out[i] = less + (equal - 1) / 2.0
        return out

    ra, rb = ranks(a), ranks(b)
    if np.std(ra) == 0 or np.std(rb) == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


class TestSpearman:
    def test_perfect_agreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rank_correlation(a, a * 10 + 3) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rank_correlation(a, -a) == pytest.approx(-1.0)

    def test_constant_input_is_zero(self):
        assert spearman_rank_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=50)
        assert spearman_rank_correlation(a, np.exp(a)) == pytest.approx(1.0)

    def test_short_samples_are_zero(self):
        assert spearman_rank_correlation(np.array([1.0]), np.array([2.0])) == 0.0
        assert spearman_rank_correlation(np.empty(0), np.empty(0)) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation(np.arange(3.0), np.arange(4.0))

    def test_ties_get_average_ranks(self):
        # [1, 2, 2, 3] vs a strictly increasing partner: the tied pair
        # shares rank 1.5, and rho is the classic tie-aware value.
        a = np.array([1.0, 2.0, 2.0, 3.0])
        b = np.array([10.0, 20.0, 30.0, 40.0])
        assert spearman_rank_correlation(a, b) == pytest.approx(
            _reference_spearman(a, b)
        )
        # Position-broken ties (argsort-of-argsort) would give exactly 1.0
        # here; tie-aware must not.
        assert spearman_rank_correlation(a, b) < 1.0

    def test_matches_reference_on_heavy_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.integers(0, 5, size=40).astype(float)
            b = rng.integers(0, 5, size=40).astype(float)
            assert spearman_rank_correlation(a, b) == pytest.approx(
                _reference_spearman(a, b), abs=1e-12
            )

    def test_all_tied_both_sides_is_zero(self):
        a = np.full(8, 2.0)
        assert spearman_rank_correlation(a, a) == 0.0


class TestSurrogateFidelity:
    def test_report_fields(self, trained_mm, cnn_problem, accelerator):
        space = MapSpace(cnn_problem, accelerator)
        report = surrogate_fidelity(
            trained_mm.surrogate, cnn_problem, space, CostModel(accelerator),
            samples=60, seed=0,
        )
        assert report.samples == 60
        assert -1.0 <= report.correlation <= 1.0
        assert -1.0 <= report.tail_correlation <= 1.0
        assert -1.0 <= report.rank_agreement <= 1.0
        assert report.mean_abs_error_log2 >= 0.0
        assert cnn_problem.name in report.describe()

    def test_trained_surrogate_has_positive_fidelity(
        self, trained_mm, cnn_problem, accelerator
    ):
        space = MapSpace(cnn_problem, accelerator)
        report = surrogate_fidelity(
            trained_mm.surrogate, cnn_problem, space, CostModel(accelerator),
            samples=80, seed=1,
        )
        assert report.correlation > 0.3
        assert report.rank_agreement > 0.3

    def test_deterministic(self, trained_mm, cnn_problem, accelerator):
        space = MapSpace(cnn_problem, accelerator)
        model = CostModel(accelerator)
        a = surrogate_fidelity(
            trained_mm.surrogate, cnn_problem, space, model, samples=30, seed=7
        )
        b = surrogate_fidelity(
            trained_mm.surrogate, cnn_problem, space, model, samples=30, seed=7
        )
        assert a == b

    def test_invalid_args_raise(self, trained_mm, cnn_problem, accelerator):
        space = MapSpace(cnn_problem, accelerator)
        model = CostModel(accelerator)
        with pytest.raises(ValueError):
            surrogate_fidelity(
                trained_mm.surrogate, cnn_problem, space, model, samples=2
            )
        with pytest.raises(ValueError):
            surrogate_fidelity(
                trained_mm.surrogate, cnn_problem, space, model, tail_fraction=0.0
            )
