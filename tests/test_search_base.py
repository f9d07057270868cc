"""Tests for budget accounting and search-result traces."""

import math

import pytest

from repro.search.base import BudgetedObjective, SearchResult


def _objective(mappings):
    # mappings in these tests are plain ints; cost = value
    return [float(mapping) for mapping in mappings]


class TestBudgetedObjective:
    def test_counts_evaluations(self):
        budget = BudgetedObjective(_objective, 3)
        budget.evaluate_many([5])
        budget.evaluate_many([2])
        assert budget.used == 2
        assert budget.remaining == 1
        assert not budget.exhausted

    def test_exhausts_at_max(self):
        budget = BudgetedObjective(_objective, 2)
        budget.evaluate_many([1])
        budget.evaluate_many([2])
        assert budget.exhausted
        with pytest.raises(RuntimeError):
            budget.evaluate_many([3])

    def test_result_freezes_trace(self):
        budget = BudgetedObjective(_objective, 3)
        budget.evaluate_many([3])
        budget.evaluate_many([1])
        result = budget.result("Test", "prob")
        assert result.n_evaluations == 2
        assert result.objective_values == [3.0, 1.0]
        budget.evaluate_many([9])
        assert result.n_evaluations == 2  # frozen copy

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            BudgetedObjective(_objective, 0)

    def test_clock_parameters_removed(self):
        """Evaluations are the one budget: the wall-clock deadline and the
        per-query latency charge are gone, not silently ignored."""
        for retired in ("time_budget_s", "simulated_latency_s"):
            with pytest.raises(TypeError):
                BudgetedObjective(_objective, 3, **{retired: 1.0})


class TestSearchResult:
    def _result(self):
        return SearchResult(
            searcher="S",
            problem="p",
            mappings=["a", "b", "c", "d"],
            objective_values=[4.0, 1.0, 3.0, 2.0],
        )

    def test_best_tracking(self):
        result = self._result()
        assert result.best_index == 1
        assert result.best_mapping == "b"
        assert result.best_objective == 1.0

    def test_best_so_far_curve(self):
        assert self._result().best_so_far() == [4.0, 1.0, 1.0, 1.0]

    def test_empty_result_raises(self):
        empty = SearchResult(searcher="S", problem="p")
        with pytest.raises(ValueError):
            _ = empty.best_index


class TestSearchResultSerialization:
    def _mapping(self):
        from repro.mapspace.mapping import Mapping

        return Mapping(
            dims=("X", "R"),
            tile_factors=((2, 7, 2, 1), (1, 1, 1, 5)),
            loop_orders=(("X", "R"), ("R", "X"), ("X", "R")),
            tensors=("Input", "Filter", "Output"),
            allocation=((4, 2, 2), (2, 1, 1)),
        )

    def test_dict_roundtrip(self):
        mapping = self._mapping()
        result = SearchResult(
            searcher="S",
            problem="p",
            mappings=[mapping, mapping],
            objective_values=[4.0, 1.0],
        )
        restored = SearchResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.best_mapping == mapping

    def test_json_roundtrip(self):
        import json

        mapping = self._mapping()
        result = SearchResult(
            searcher="S",
            problem="p",
            mappings=[mapping],
            objective_values=[1.5],
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert SearchResult.from_dict(payload) == result
