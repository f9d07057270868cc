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

    def test_simulated_latency_charges_time(self):
        budget = BudgetedObjective(_objective, 100, time_budget_s=1.0,
                                   simulated_latency_s=0.4)
        budget.evaluate_many([1])
        budget.evaluate_many([2])
        budget.evaluate_many([3])
        # 3 * 0.4s of virtual time > 1.0s budget
        assert budget.exhausted
        assert budget.used == 3

    def test_times_monotone(self):
        budget = BudgetedObjective(_objective, 5, simulated_latency_s=0.01)
        for i in range(5):
            budget.evaluate_many([i])
        assert budget.times == sorted(budget.times)
        assert budget.times[-1] >= 0.05

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
        with pytest.raises(ValueError):
            BudgetedObjective(_objective, 1, simulated_latency_s=-1.0)


class TestSearchResult:
    def _result(self):
        return SearchResult(
            searcher="S",
            problem="p",
            mappings=["a", "b", "c", "d"],
            objective_values=[4.0, 1.0, 3.0, 2.0],
            eval_times=[0.1, 0.2, 0.3, 0.4],
            wall_time=0.4,
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
            eval_times=[0.1, 0.2],
            wall_time=0.25,
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
            eval_times=[0.05],
            wall_time=0.1,
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert SearchResult.from_dict(payload) == result
