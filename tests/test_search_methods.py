"""Tests for the baseline searchers: Random, SA, GA, RL, Exhaustive."""

import math

import pytest

from repro.costmodel import CostModel, algorithmic_minimum
from repro.search import (
    ExhaustiveSearcher,
    GeneticSearcher,
    RLSearcher,
    RandomSearcher,
    SimulatedAnnealingSearcher,
)


def _common_checks(result, space, iterations):
    assert result.n_evaluations == iterations
    assert all(space.is_member(m) for m in result.mappings)
    assert all(math.isfinite(v) for v in result.objective_values)


class TestRandomSearcher:
    def test_basic(self, cnn_space, cost_model):
        result = RandomSearcher(cnn_space, cost_model).run(30, seed=0)
        _common_checks(result, cnn_space, 30)
        assert result.searcher == "Random"

    def test_deterministic(self, cnn_space, cost_model):
        searcher = RandomSearcher(cnn_space, cost_model)
        assert searcher.run(10, seed=1).mappings == searcher.run(10, seed=1).mappings

    def test_objective_is_log2_edp(self, cnn_space, cost_model, cnn_problem):
        result = RandomSearcher(cnn_space, cost_model).run(5, seed=2)
        for mapping, value in zip(result.mappings, result.objective_values):
            assert value == pytest.approx(
                math.log2(cost_model.evaluate_edp(mapping, cnn_problem))
            )


class TestSimulatedAnnealing:
    def test_basic(self, cnn_space, cost_model):
        result = SimulatedAnnealingSearcher(cnn_space, cost_model).run(60, seed=0)
        _common_checks(result, cnn_space, 60)

    def test_improves_over_first_sample(self, cnn_space, cost_model):
        improved = 0
        for seed in range(4):
            result = SimulatedAnnealingSearcher(cnn_space, cost_model).run(150, seed=seed)
            if result.best_objective < result.objective_values[0]:
                improved += 1
        assert improved >= 3

    def test_restart_option(self, cnn_space, cost_model):
        searcher = SimulatedAnnealingSearcher(cnn_space, cost_model, restart_after=10)
        _common_checks(searcher.run(50, seed=0), cnn_space, 50)

    def test_invalid_acceptance_raises(self, cnn_space, cost_model):
        with pytest.raises(ValueError):
            SimulatedAnnealingSearcher(
                cnn_space, cost_model, initial_acceptance=0.1, final_acceptance=0.5
            )


class TestGeneticSearcher:
    def test_basic(self, cnn_space, cost_model):
        searcher = GeneticSearcher(cnn_space, cost_model, population_size=10)
        _common_checks(searcher.run(60, seed=0), cnn_space, 60)

    def test_elites_preserved(self, cnn_space, cost_model):
        searcher = GeneticSearcher(
            cnn_space, cost_model, population_size=8, elite_count=2
        )
        result = searcher.run(60, seed=1)
        # best objective can never regress across generations
        curve = result.best_so_far()
        assert curve == sorted(curve, reverse=True)

    def test_population_clamped_to_budget(self, cnn_space, cost_model):
        searcher = GeneticSearcher(cnn_space, cost_model, population_size=100)
        result = searcher.run(20, seed=0)
        assert result.n_evaluations == 20

    def test_invalid_params_raise(self, cnn_space, cost_model):
        with pytest.raises(ValueError):
            GeneticSearcher(cnn_space, cost_model, population_size=1)
        with pytest.raises(ValueError):
            GeneticSearcher(cnn_space, cost_model, crossover_probability=1.5)
        with pytest.raises(ValueError):
            GeneticSearcher(cnn_space, cost_model, mutation_probability=-0.1)


class TestRLSearcher:
    def test_basic(self, cnn_space, cost_model):
        searcher = RLSearcher(
            cnn_space, cost_model, hidden_width=32, batch_size=8, warmup=8
        )
        result = searcher.run(40, seed=0)
        _common_checks(result, cnn_space, 40)
        assert result.searcher == "RL"

    def test_deterministic(self, cnn_space, cost_model):
        searcher = RLSearcher(
            cnn_space, cost_model, hidden_width=16, batch_size=4, warmup=4
        )
        a = searcher.run(15, seed=3)
        b = searcher.run(15, seed=3)
        assert a.mappings == b.mappings


class TestExhaustiveSearcher:
    def test_finds_global_optimum_of_tiny_space(
        self, conv1d_space, tiny_cost_model, conv1d_problem
    ):
        searcher = ExhaustiveSearcher(
            conv1d_space, tiny_cost_model, include_orders=False
        )
        result = searcher.run(100_000)
        # verify against brute force
        best = min(
            tiny_cost_model.evaluate_edp(m, conv1d_problem)
            for m in conv1d_space.enumerate_mappings(include_orders=False)
        )
        assert 2.0**result.best_objective == pytest.approx(best)

    def test_budget_caps_enumeration(self, conv1d_space, tiny_cost_model):
        searcher = ExhaustiveSearcher(conv1d_space, tiny_cost_model, include_orders=False)
        assert searcher.run(10).n_evaluations == 10


class TestHeuristicsBeatTheoreticalFloor:
    def test_all_searchers_bounded_below(self, cnn_space, cost_model, cnn_problem):
        bound = algorithmic_minimum(cnn_problem, cost_model.accelerator)
        for searcher in (
            RandomSearcher(cnn_space, cost_model),
            SimulatedAnnealingSearcher(cnn_space, cost_model),
            GeneticSearcher(cnn_space, cost_model, population_size=8),
        ):
            result = searcher.run(40, seed=0)
            assert 2.0**result.best_objective >= bound.edp
