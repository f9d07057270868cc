"""Tests for Phase 2 projected gradient descent."""

import math

import numpy as np
import pytest

from repro.core import GradientSearcher
from repro.mapspace import MapSpace


class TestGradientSearcher:
    def test_runs_and_respects_budget(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        result = searcher.search(50, seed=0)
        assert result.n_evaluations == 50
        assert result.searcher == "MM"

    def test_all_visited_mappings_valid(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        result = searcher.search(60, seed=1)
        assert all(cnn_space.is_member(m) for m in result.mappings)

    def test_never_queries_true_cost_model(self, trained_mm, cnn_space, monkeypatch):
        """The paper's key speed property: Phase 2 is oracle-free."""
        from repro.costmodel.model import CostModel

        def forbidden(self, *args, **kwargs):
            raise AssertionError("gradient search must not query the oracle")

        monkeypatch.setattr(CostModel, "evaluate", forbidden)
        monkeypatch.setattr(CostModel, "evaluate_edp", forbidden)
        GradientSearcher(cnn_space, trained_mm.surrogate).search(30, seed=2)

    def test_deterministic_given_seed(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        a = searcher.search(40, seed=3)
        b = searcher.search(40, seed=3)
        assert a.mappings == b.mappings
        assert a.objective_values == b.objective_values

    def test_descends_surrogate_objective(self, trained_mm, cnn_space):
        """Across several seeds, the best objective found must improve on
        the starting point (gradients point somewhere useful)."""
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        improved = 0
        for seed in range(5):
            result = searcher.search(80, seed=seed)
            if result.best_objective < result.objective_values[0] - 1e-9:
                improved += 1
        assert improved >= 3

    def test_injections_occur(self, trained_mm, cnn_space):
        """With inject_every=5, injection evaluations appear in the trace."""
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate, inject_every=5)
        result = searcher.search(60, seed=0)
        # 60 evals = 50 GD steps + 10 injections at minimum diversity:
        assert len(set(result.mappings)) > 5

    def test_paper_literal_mode(self, trained_mm, cnn_space):
        searcher = GradientSearcher(
            cnn_space,
            trained_mm.surrogate,
            normalize_gradient=False,
            escalate_when_stuck=False,
        )
        result = searcher.search(30, seed=0)
        assert result.n_evaluations == 30

    def test_mismatched_surrogate_raises(self, trained_mm, mttkrp_problem, accelerator):
        space = MapSpace(mttkrp_problem, accelerator)
        with pytest.raises(ValueError):
            GradientSearcher(space, trained_mm.surrogate)

    def test_invalid_hyperparams_raise(self, trained_mm, cnn_space):
        with pytest.raises(ValueError):
            GradientSearcher(cnn_space, trained_mm.surrogate, learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientSearcher(cnn_space, trained_mm.surrogate, inject_every=0)

    @pytest.mark.parametrize("setting", ["learning_rate", "initial_temperature",
                                         "temperature_decay", "max_escalation"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, trained_mm, cnn_space, setting, bad):
        # NaN slipped past ``learning_rate <= 0`` and failed mid-search (or,
        # for max_escalation, was served silently); reject it up front.
        with pytest.raises(ValueError, match=rf"{setting} must be finite"):
            GradientSearcher(cnn_space, trained_mm.surrogate, **{setting: bad})

    def test_decode_is_lazy_and_the_last_one_skipped(
        self, trained_mm, cnn_space, monkeypatch
    ):
        """Each descent's rows are decoded by the next ``ask``, all of a
        step's rows in one call; the final step's decode never runs."""
        encoder = trained_mm.surrogate.encoder
        calls = []
        decode = type(encoder).decode

        def counting(self, rows, spaces):
            calls.append(np.shape(rows))
            return decode(self, rows, spaces)

        monkeypatch.setattr(type(encoder), "decode", counting)
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate, restarts=3)
        result = searcher.search(15, seed=0)  # five descent steps of 3 rows
        assert result.n_evaluations == 15
        assert calls == [(3, encoder.length)] * 4

    def test_time_budget_respected(self, trained_mm, cnn_space):
        searcher = GradientSearcher(cnn_space, trained_mm.surrogate)
        result = searcher.search(100_000, seed=0, time_budget_s=0.2)
        assert result.wall_time < 2.0
        assert result.n_evaluations < 100_000
