"""Tests for the experiment harness: runners, summaries, surface, tables."""

import dataclasses
import math
import time

import numpy as np
import pytest

from repro.costmodel import CostModel
from repro.harness import (
    ORACLE_QUERY_S,
    SURROGATE_STEP_S,
    ExperimentConfig,
    MethodCurve,
    ascii_curve,
    build_standard_methods,
    format_table,
    geomean_ratios,
    run_iso_iteration,
    run_iso_time,
    summarize_final_quality,
    sweep_cost_surface,
)
from repro.harness.summary import gap_to_lower_bound
from repro.search import RandomSearcher, SimulatedAnnealingSearcher


@pytest.fixture(scope="module")
def small_methods(accelerator):
    model = CostModel(accelerator)
    return {
        "Random": lambda space: RandomSearcher(space, model),
        "SA": lambda space: SimulatedAnnealingSearcher(space, model),
    }


class TestIsoIteration:
    def test_produces_curves(self, cnn_problem, accelerator, small_methods):
        config = ExperimentConfig(iterations=30, runs=2)
        curves = run_iso_iteration(cnn_problem, accelerator, small_methods, config, seed=0)
        assert set(curves) == {"Random", "SA"}
        for curve in curves.values():
            assert len(curve.grid) == 30
            assert curve.runs == 2
            # best-so-far is monotone non-increasing
            assert all(np.diff(curve.mean_best_norm_edp) <= 1e-12)
            # normalized EDP can never beat the lower bound
            assert (curve.mean_best_norm_edp >= 1.0).all()

    def test_deterministic(self, cnn_problem, accelerator, small_methods):
        config = ExperimentConfig(iterations=10, runs=2)
        a = run_iso_iteration(cnn_problem, accelerator, small_methods, config, seed=4)
        b = run_iso_iteration(cnn_problem, accelerator, small_methods, config, seed=4)
        np.testing.assert_array_equal(
            a["Random"].mean_best_norm_edp, b["Random"].mean_best_norm_edp
        )


def _spied(methods, log):
    """Wrap each factory so its searchers log the budget ``reset`` receives
    and the evaluations each ``run`` records."""

    def spy(name, factory):
        def build(space):
            searcher = factory(space)
            reset, run = searcher.reset, searcher.run

            def spy_reset(seed=None, iterations=None):
                log.append((name, "reset", iterations))
                reset(seed, iterations=iterations)

            def spy_run(iterations, seed=None):
                result = run(iterations, seed=seed)
                log.append((name, "evaluated", result.n_evaluations))
                return result

            searcher.reset, searcher.run = spy_reset, spy_run
            return searcher

        return build

    return {name: spy(name, factory) for name, factory in methods.items()}


class TestIsoTime:
    """Iso-time is iso-iteration on a charged clock: no clock is read."""

    BUDGET_S = 0.1

    @pytest.fixture(scope="class")
    def methods(self, accelerator, trained_mm):
        return build_standard_methods(
            accelerator, trained_mm.surrogate, ga_population=4
        )

    @pytest.mark.parametrize("name", ["MM", "SA", "GA", "RL", "Random"])
    def test_curve_is_the_iso_iteration_curve_at_its_budget(
        self, cnn_problem, accelerator, methods, name
    ):
        """The charged clock only rescales the x-axis: each run's ``reset``
        receives and its search spends ``floor(budget / charge)``
        evaluations, and at one seed the iso-time curve is the method's
        iso-iteration curve at that count, value for value."""
        charge = SURROGATE_STEP_S if name == "MM" else ORACLE_QUERY_S
        evaluations = math.floor(self.BUDGET_S / charge)
        one = {name: methods[name]}
        log = []
        # ``iterations`` bounds iso-iteration runs only.
        config = ExperimentConfig(
            iterations=1, runs=2, time_budget_s=self.BUDGET_S
        )
        timed = run_iso_time(
            cnn_problem, accelerator, _spied(one, log), config, seed=3
        )[name]
        assert [(kind, n) for _, kind, n in log] == [
            ("reset", evaluations), ("evaluated", evaluations),
        ] * config.runs
        counted = run_iso_iteration(
            cnn_problem, accelerator, one,
            ExperimentConfig(iterations=evaluations, runs=2), seed=3,
        )[name]
        assert np.array_equal(
            timed.mean_best_norm_edp, counted.mean_best_norm_edp
        )
        assert np.array_equal(timed.std_best_norm_edp, counted.std_best_norm_edp)
        # Evaluation k lands at k charges; the last one within budget.
        np.testing.assert_array_equal(
            timed.grid, np.arange(1, evaluations + 1) * charge
        )
        assert timed.grid[-1] <= self.BUDGET_S

    @pytest.mark.parametrize(
        ("name", "budget_s", "evaluations"),
        [("Random", 0.58, 29), ("MM", 0.0215, 43)],
    )
    def test_whole_number_of_charges_buys_every_evaluation(
        self, cnn_problem, accelerator, methods, name, budget_s, evaluations
    ):
        """A budget of exactly ``evaluations`` charges buys all of them,
        though its float quotient falls just short (0.58 / 0.02 is
        28.999999999999996)."""
        curve = run_iso_time(
            cnn_problem, accelerator, {name: methods[name]},
            ExperimentConfig(runs=1, time_budget_s=budget_s), seed=0,
        )[name]
        assert len(curve.grid) == evaluations

    def test_charge_follows_the_searcher_class_not_its_label(
        self, cnn_problem, accelerator, methods
    ):
        """An oracle searcher pays a query and any other searcher a
        surrogate step, whatever label the figure gives it."""
        swapped = {"MM": methods["Random"], "Random": methods["MM"]}
        curves = run_iso_time(
            cnn_problem, accelerator, swapped,
            ExperimentConfig(runs=1, time_budget_s=self.BUDGET_S), seed=0,
        )
        for label, charge in (("MM", ORACLE_QUERY_S), ("Random", SURROGATE_STEP_S)):
            evaluations = math.floor(self.BUDGET_S / charge)
            np.testing.assert_array_equal(
                curves[label].grid, np.arange(1, evaluations + 1) * charge
            )

    def test_budget_under_one_query_buys_surrogate_steps_only(
        self, cnn_problem, accelerator, methods
    ):
        """Half a query's charge still buys Mind Mappings its steps, but no
        oracle searcher gets an evaluation: its run is refused, never
        plotted as an empty curve."""
        config = ExperimentConfig(runs=1, time_budget_s=ORACLE_QUERY_S / 2)
        curve = run_iso_time(
            cnn_problem, accelerator, {"MM": methods["MM"]}, config, seed=0
        )["MM"]
        assert len(curve.grid) == math.floor(ORACLE_QUERY_S / 2 / SURROGATE_STEP_S)
        for name in ("SA", "GA", "RL", "Random"):
            with pytest.raises(ValueError, match="max_evaluations"):
                run_iso_time(
                    cnn_problem, accelerator, {name: methods[name]}, config,
                    seed=0,
                )

    def test_reads_no_clock(self, cnn_problem, accelerator, methods, monkeypatch):
        """Every method's run and re-scoring completes with the process
        clocks stopped: nothing on the iso-time path reads the time."""

        def stopped(*args, **kwargs):
            raise AssertionError("the iso-time path read a clock")

        for clock in ("time", "time_ns", "perf_counter", "perf_counter_ns",
                      "monotonic", "monotonic_ns", "process_time"):
            monkeypatch.setattr(time, clock, stopped)
        curves = run_iso_time(
            cnn_problem, accelerator, methods,
            ExperimentConfig(runs=1, time_budget_s=self.BUDGET_S), seed=2,
        )
        monkeypatch.undo()
        assert set(curves) == {"MM", "SA", "GA", "RL", "Random"}


class TestExperimentConfig:
    def test_three_knobs(self):
        """The budgets are an evaluation count and charged seconds; the
        wall-clock knobs are gone, not silently accepted."""
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "iterations", "runs", "time_budget_s",
        ]
        for retired in ("oracle_latency_s", "time_grid_points"):
            with pytest.raises(TypeError):
                ExperimentConfig(**{retired: 1})


class TestSummaries:
    def _curves(self, finals):
        return {
            name: MethodCurve(
                method=name,
                problem="p",
                grid=np.array([1.0, 2.0]),
                mean_best_norm_edp=np.array([final * 2, final]),
                std_best_norm_edp=np.zeros(2),
                runs=1,
            )
            for name, final in finals.items()
        }

    def test_geomean_ratios(self):
        curves_a = self._curves({"MM": 2.0, "SA": 4.0})
        curves_b = self._curves({"MM": 3.0, "SA": 3.0})
        ratios = geomean_ratios({"a": curves_a, "b": curves_b})
        sa = next(r for r in ratios if r.baseline == "SA")
        assert sa.ratio == pytest.approx((2.0 * 1.0) ** 0.5)
        assert "SA / MM" in sa.describe()

    def test_missing_reference_raises(self):
        with pytest.raises(KeyError):
            geomean_ratios({"a": self._curves({"SA": 4.0})})

    def test_gap_to_lower_bound(self):
        data = {"a": self._curves({"MM": 4.0}), "b": self._curves({"MM": 9.0})}
        assert gap_to_lower_bound(data) == pytest.approx(6.0)

    def test_summarize_sorted(self):
        rows = summarize_final_quality(self._curves({"SA": 4.0, "MM": 2.0}))
        assert rows[0][0] == "MM"


class TestSurface:
    def test_sweep_structure(self, cnn_problem, accelerator):
        surface = sweep_cost_surface(cnn_problem, accelerator, "K", "C", seed=0)
        assert surface.norm_edp.shape == (len(surface.y_values), len(surface.x_values))
        assert (surface.norm_edp >= 1.0).all()
        assert surface.dynamic_range >= 1.0
        assert 0.0 <= surface.jump_fraction() <= 1.0
        assert surface.local_minima_count() >= 0

    def test_same_dim_raises(self, cnn_problem, accelerator):
        with pytest.raises(ValueError):
            sweep_cost_surface(cnn_problem, accelerator, "K", "K")


class TestTables:
    def test_format_table(self):
        text = format_table(("a", "bb"), [("1", "2"), ("333", "4")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(("a",), [("1", "2")])

    def test_ascii_curve_renders(self):
        curve = MethodCurve(
            method="MM",
            problem="p",
            grid=np.arange(1.0, 11.0),
            mean_best_norm_edp=np.geomspace(100, 2, 10),
            std_best_norm_edp=np.zeros(10),
            runs=1,
        )
        text = ascii_curve({"MM": curve}, width=20, height=6)
        assert "*=MM" in text
        assert len(text.splitlines()) >= 8

    def test_ascii_curve_empty(self):
        assert "(no curves)" in ascii_curve({})


class TestStandardMethods:
    def test_requires_surrogate_for_mm(self, accelerator):
        with pytest.raises(ValueError):
            build_standard_methods(accelerator, None, include=("MM",))

    def test_unknown_method_raises(self, accelerator):
        with pytest.raises(KeyError):
            build_standard_methods(accelerator, None, include=("Oracle",))

    def test_builds_factories(self, accelerator, trained_mm, cnn_space):
        methods = build_standard_methods(
            accelerator, trained_mm.surrogate, include=("MM", "SA", "Random")
        )
        for name, factory in methods.items():
            searcher = factory(cnn_space)
            assert searcher.name == name
