"""The batched ask/tell protocol: parity, metering, vectorized restarts.

The central contract of the API redesign: ``Searcher.run()`` is nothing but
the generic ask → evaluate → tell loop, so an external driver speaking the
same protocol reproduces its traces exactly — for every registered searcher.
"""

import math
import time

import pytest

from repro.engine.registry import make_searcher, searcher_names
from repro.search.base import BudgetedObjective, OracleSearcher


def hand_rolled_drive(searcher, iterations, seed):
    """An external ask/tell driver: the documented protocol, by hand."""
    budget = searcher.make_budget(iterations)
    searcher.reset(seed, iterations=iterations)
    while not budget.exhausted:
        batch = searcher.ask()
        if not batch:
            break
        values = budget.evaluate_many(batch)
        searcher.tell(batch[: len(values)], values)
    return budget.result(searcher.name, searcher.problem.name)


@pytest.fixture
def build(cnn_space, cost_model, conv1d_space, tiny_cost_model, trained_mm):
    """Construct a registered searcher with small, fast hyper-parameters.

    Exhaustive search runs on the tiny enumerable conv1d space; everything
    else on the realistic CNN space.
    """

    def _build(name):
        if name == "exhaustive":
            return make_searcher(
                "exhaustive", conv1d_space, cost_model=tiny_cost_model,
                include_orders=False,
            )
        config = {
            "gradient": {"surrogate": trained_mm.surrogate},
            "rl": {"cost_model": cost_model, "hidden_width": 16,
                   "batch_size": 4, "warmup": 4},
            "genetic": {"cost_model": cost_model, "population_size": 8},
        }.get(name, {"cost_model": cost_model})
        return make_searcher(name, cnn_space, **config)

    return _build


class TestRunEqualsHandRolledDriver:
    """run() and an external ask/tell driver produce identical traces."""

    @pytest.mark.parametrize("name", sorted(searcher_names()))
    def test_parity(self, name, build):
        iterations = 25
        searcher = build(name)
        via_run = searcher.run(iterations, seed=7)
        via_driver = hand_rolled_drive(searcher, iterations, seed=7)
        assert via_run.mappings == via_driver.mappings
        assert via_run.objective_values == via_driver.objective_values
        assert via_run.n_evaluations == iterations

    @pytest.mark.parametrize("name", sorted(searcher_names()))
    def test_run_is_deterministic_per_seed(self, name, build):
        searcher = build(name)
        first = searcher.run(20, seed=3)
        second = searcher.run(20, seed=3)
        assert first.mappings == second.mappings
        assert first.objective_values == second.objective_values

    @pytest.mark.parametrize("name", sorted(searcher_names()))
    def test_run_reads_no_clock(self, name, build, monkeypatch):
        """A search's one budget is its evaluations: with the process
        clocks stopped, every searcher still spends exactly that many."""
        searcher = build(name)

        def stopped(*args, **kwargs):
            raise AssertionError(f"{name} read a clock")

        for clock in ("time", "time_ns", "perf_counter", "perf_counter_ns",
                      "monotonic", "monotonic_ns", "process_time"):
            monkeypatch.setattr(time, clock, stopped)
        result = searcher.run(20, seed=5)
        monkeypatch.undo()
        assert result.n_evaluations == 20


class TestBatchMetering:
    """BudgetedObjective.evaluate_many keeps accounting exact."""

    @staticmethod
    def _objective(mappings):
        return [float(mapping) for mapping in mappings]

    def test_truncates_to_remaining(self):
        budget = BudgetedObjective(self._objective, 5)
        values = budget.evaluate_many([1, 2, 3])
        assert values == [1.0, 2.0, 3.0]
        values = budget.evaluate_many([4, 5, 6, 7])
        assert values == [4.0, 5.0]
        assert budget.used == 5
        assert budget.exhausted

    def test_raises_when_already_spent(self):
        budget = BudgetedObjective(self._objective, 1)
        budget.evaluate_many([1])
        with pytest.raises(RuntimeError):
            budget.evaluate_many([2])

    def test_batch_objective_used_for_batches(self):
        calls = []

        def objective(mappings):
            calls.append(len(mappings))
            return [float(m) for m in mappings]

        budget = BudgetedObjective(objective, 10)
        budget.evaluate_many([1, 2, 3])
        assert calls == [3]

    def test_wrong_batch_value_count_rejected(self):
        budget = BudgetedObjective(lambda mappings: [0.0], 10)
        with pytest.raises(ValueError):
            budget.evaluate_many([1, 2, 3])

    def test_empty_batch_returns_empty(self):
        budget = BudgetedObjective(self._objective, 3)
        assert budget.evaluate_many([]) == []
        assert budget.used == 0


class TestOracleSearcherBatching:
    def test_objective_batch_routes_through_evaluate_many(self, cnn_space,
                                                          cost_model):
        calls = []

        class SpyOracle:
            def evaluate_many(self, mappings, problem):
                calls.append(len(mappings))
                return cost_model.evaluate_many(mappings, problem)

        searcher = make_searcher("random", cnn_space, cost_model=SpyOracle(),
                                 batch_size=8)
        result = searcher.run(16, seed=0)
        assert result.n_evaluations == 16
        assert calls == [8, 8]
        for value in result.objective_values:
            assert math.isfinite(value)


class TestVectorizedRestarts:
    def test_multi_restart_respects_budget(self, trained_mm, cnn_space):
        searcher = make_searcher(
            "gradient", cnn_space, surrogate=trained_mm.surrogate, restarts=4
        )
        result = searcher.run(40, seed=0)
        assert result.n_evaluations == 40
        assert all(cnn_space.is_member(m) for m in result.mappings)

    def test_multi_restart_deterministic(self, trained_mm, cnn_space):
        searcher = make_searcher(
            "gradient", cnn_space, surrogate=trained_mm.surrogate, restarts=3
        )
        first = searcher.run(30, seed=5)
        second = searcher.run(30, seed=5)
        assert first.mappings == second.mappings
        assert first.objective_values == second.objective_values

    def test_restart_batches_descend_together(self, trained_mm, cnn_space):
        """Each descend ask proposes one candidate per chain."""
        searcher = make_searcher(
            "gradient", cnn_space, surrogate=trained_mm.surrogate, restarts=3
        )
        searcher.reset(seed=1, iterations=30)
        batch = searcher.ask()
        assert len(batch) == 3

    def test_invalid_restarts_rejected(self, trained_mm, cnn_space):
        with pytest.raises(ValueError):
            make_searcher(
                "gradient", cnn_space, surrogate=trained_mm.surrogate, restarts=0
            )

    def test_multi_restart_never_queries_oracle(self, trained_mm, cnn_space,
                                                monkeypatch):
        from repro.costmodel.model import CostModel

        def forbidden(self, *args, **kwargs):
            raise AssertionError("gradient search must not query the oracle")

        monkeypatch.setattr(CostModel, "evaluate", forbidden)
        monkeypatch.setattr(CostModel, "evaluate_edp", forbidden)
        monkeypatch.setattr(CostModel, "evaluate_many", forbidden)
        searcher = make_searcher(
            "gradient", cnn_space, surrogate=trained_mm.surrogate, restarts=2
        )
        searcher.run(20, seed=2)
