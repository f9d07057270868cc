"""Searcher registry: every registered name constructs and runs."""

import pytest

from repro.costmodel import CostModel
from repro.engine import make_searcher, register_searcher, resolve_searcher, searcher_names
from repro.search import (
    ExhaustiveSearcher,
    GeneticSearcher,
    RLSearcher,
    RandomSearcher,
    Searcher,
    SimulatedAnnealingSearcher,
)

BUILTIN_NAMES = ("annealing", "exhaustive", "genetic", "gradient", "random", "rl")


class TestRegistryContents:
    def test_builtins_registered(self):
        assert set(BUILTIN_NAMES) <= set(searcher_names())

    def test_aliases_resolve_to_canonical(self):
        assert resolve_searcher("sa") == "annealing"
        assert resolve_searcher("GA") == "genetic"
        assert resolve_searcher("mm") == "gradient"
        assert resolve_searcher("Mind_Mappings") == "gradient"

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="genetic"):
            resolve_searcher("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_searcher("random")(RandomSearcher)

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError, match="already"):
            register_searcher("brand-new", aliases=("sa",))(RandomSearcher)


class TestConstruction:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("random", RandomSearcher),
            ("annealing", SimulatedAnnealingSearcher),
            ("genetic", GeneticSearcher),
            ("rl", RLSearcher),
            ("exhaustive", ExhaustiveSearcher),
        ],
    )
    def test_baselines_construct_with_injected_cost_model(
        self, name, cls, conv1d_space
    ):
        searcher = make_searcher(name, conv1d_space)
        assert isinstance(searcher, cls)
        assert searcher.cost_model.accelerator is conv1d_space.accelerator

    def test_explicit_cost_model_honored(self, conv1d_space, tiny_accelerator):
        model = CostModel(tiny_accelerator)
        searcher = make_searcher("random", conv1d_space, cost_model=model)
        assert searcher.cost_model is model

    def test_config_forwarded(self, conv1d_space):
        searcher = make_searcher("genetic", conv1d_space, population_size=5)
        assert searcher.population_size == 5

    def test_gradient_requires_surrogate(self, cnn_space):
        with pytest.raises(ValueError, match="surrogate"):
            make_searcher("gradient", cnn_space)

    def test_gradient_constructs_with_surrogate(self, trained_mm, cnn_space):
        searcher = make_searcher("gradient", cnn_space, surrogate=trained_mm.surrogate)
        assert searcher.name == "MM"

    def test_unknown_parameter_rejected(self, conv1d_space):
        with pytest.raises(TypeError, match="no_such_knob"):
            make_searcher("random", conv1d_space, no_such_knob=1)


class TestAllRegisteredNamesRun:
    """Acceptance: every registry name constructs and completes 10 iterations."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_runs_ten_iterations(self, name, conv1d_space, trained_mm, cnn_space):
        if name == "gradient":
            space, config = cnn_space, {"surrogate": trained_mm.surrogate}
        else:
            space, config = conv1d_space, {}
        searcher = make_searcher(name, space, **config)
        assert isinstance(searcher, Searcher)
        result = searcher.run(10, seed=0)
        assert 1 <= result.n_evaluations <= 10
        assert result.best_objective == min(result.objective_values)
        assert space.is_member(result.best_mapping)
