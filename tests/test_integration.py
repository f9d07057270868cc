"""Cross-module integration tests: the full story on small problems."""

import math

import numpy as np
import pytest

from repro.core import GradientSearcher, MindMappings, MindMappingsConfig, TrainingConfig
from repro.costmodel import CostModel, algorithmic_minimum
from repro.mapspace import MapSpace
from repro.search import RandomSearcher, SimulatedAnnealingSearcher
from repro.workloads import make_cnn_layer, make_gemm, make_mttkrp


class TestEndToEndCnn:
    def test_mm_beats_first_random_samples(self, trained_mm, cnn_problem, cost_model):
        """MM's best found mapping must beat the average random sample by a
        wide margin (the minimum bar for a guided search)."""
        space = MapSpace(cnn_problem, trained_mm.accelerator)
        mapping, stats = trained_mm.find_mapping(cnn_problem, iterations=120, seed=0)
        random_edps = [
            cost_model.evaluate_edp(space.sample(seed), cnn_problem)
            for seed in range(20)
        ]
        assert stats.edp < np.mean(random_edps)

    def test_mm_reaches_reasonable_lb_gap(self, trained_mm, cnn_problem, cost_model):
        """Paper reports ~5.3x gap to the (unachievable) lower bound; even
        the scaled-down setup must stay within a loose multiple of that."""
        space = MapSpace(cnn_problem, trained_mm.accelerator)
        model = CostModel(trained_mm.accelerator)
        searcher = trained_mm.searcher(cnn_problem)
        result = searcher.run(200, seed=1)
        best_true = min(model.evaluate_edp(m, cnn_problem) for m in result.mappings)
        bound = algorithmic_minimum(cnn_problem, trained_mm.accelerator)
        assert best_true / bound.edp < 50.0


class TestOtherAlgorithms:
    """The framework must be algorithm-agnostic end to end."""

    @pytest.mark.parametrize(
        "problem_factory",
        [
            lambda: make_mttkrp("mt", i=32, j=64, k=64, l=16),
            lambda: make_gemm("gm", m=64, n=64, k=128),
        ],
        ids=["mttkrp", "gemm"],
    )
    def test_full_pipeline(self, accelerator, problem_factory):
        problem = problem_factory()
        config = MindMappingsConfig(
            dataset_samples=400,
            training=TrainingConfig(hidden_layers=(32,), epochs=3),
        )
        mm = MindMappings.train(
            problem.algorithm, accelerator, config, problems=[problem], seed=0
        )
        mapping, stats = mm.find_mapping(problem, iterations=40, seed=0)
        bound = algorithmic_minimum(problem, accelerator)
        assert stats.edp >= bound.edp
        space = MapSpace(problem, accelerator)
        assert space.is_member(mapping)


class TestSearcherAgreementOnTinySpace:
    def test_heuristics_approach_exhaustive_optimum(
        self, conv1d_problem, tiny_accelerator, tiny_cost_model
    ):
        """On an enumerable space, SA with a generous budget must come
        within a small factor of the true optimum."""
        space = MapSpace(conv1d_problem, tiny_accelerator)
        optimum = min(
            tiny_cost_model.evaluate_edp(m, conv1d_problem)
            for m in space.enumerate_mappings(include_orders=False)
        )
        result = SimulatedAnnealingSearcher(space, tiny_cost_model).run(400, seed=0)
        best = 2.0**result.best_objective
        assert best <= optimum * 4.0

    def test_random_converges_with_budget(
        self, conv1d_problem, tiny_accelerator, tiny_cost_model
    ):
        space = MapSpace(conv1d_problem, tiny_accelerator)
        short = RandomSearcher(space, tiny_cost_model).run(10, seed=0)
        long = RandomSearcher(space, tiny_cost_model).run(300, seed=0)
        assert long.best_objective <= short.best_objective


class TestSurrogateFidelity:
    def test_prediction_correlates_with_truth(self, trained_mm, cnn_problem, cost_model):
        """The trained surrogate must rank mappings usefully (Spearman-ish
        via Pearson on log EDP)."""
        space = MapSpace(cnn_problem, trained_mm.accelerator)
        bound = algorithmic_minimum(cnn_problem, trained_mm.accelerator)
        samples = space.sample_many(60, seed=123)
        truth = np.array(
            [math.log2(cost_model.evaluate_edp(m, cnn_problem) / bound.edp) for m in samples]
        )
        predicted = np.array(
            [
                trained_mm.surrogate.predict_log2_norm_edp(
                    trained_mm.surrogate.whiten_mapping(m, cnn_problem)
                )[0]
                for m in samples
            ]
        )
        # Threshold chosen for the deliberately tiny test fixture (4k
        # samples, 12 epochs); the benchmark-scale surrogate reaches ~0.95.
        assert np.corrcoef(truth, predicted)[0, 1] > 0.35
