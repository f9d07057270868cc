"""Tests for the experiment harness: runners, summaries, surface, tables."""

import numpy as np
import pytest

from repro.costmodel import CostModel
from repro.harness import (
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
from repro.harness.experiments import _resample_to_grid
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


class TestIsoTime:
    def test_produces_time_curves(self, cnn_problem, accelerator, small_methods):
        config = ExperimentConfig(
            iterations=50, runs=2, time_budget_s=0.15, oracle_latency_s=0.002,
            time_grid_points=8,
        )
        curves = run_iso_time(cnn_problem, accelerator, small_methods, config, seed=0)
        for curve in curves.values():
            assert len(curve.grid) == 8
            assert curve.grid[-1] == pytest.approx(0.15)
            assert all(np.diff(curve.mean_best_norm_edp) <= 1e-12)

    def test_latency_reduces_evaluations(self, cnn_problem, accelerator):
        """Charging oracle latency must reduce how many evals fit."""
        model = CostModel(accelerator)
        from repro.mapspace import MapSpace

        space = MapSpace(cnn_problem, accelerator)
        fast = RandomSearcher(space, model)
        slow = RandomSearcher(space, model)
        slow.simulated_latency_s = 0.05
        fast_result = fast.run(10_000, seed=0, time_budget_s=0.3)
        slow_result = slow.run(10_000, seed=0, time_budget_s=0.3)
        assert slow_result.n_evaluations < fast_result.n_evaluations
        assert slow_result.n_evaluations <= 7  # ~0.3 / 0.05


class TestResample:
    def test_step_interpolation(self):
        times = np.array([1.0, 2.0, 3.0])
        curve = np.array([5.0, 4.0, 2.0])
        grid = np.array([0.5, 1.5, 2.5, 9.0])
        np.testing.assert_array_equal(
            _resample_to_grid(times, curve, grid), [5.0, 5.0, 4.0, 2.0]
        )

    def test_empty_curve(self):
        out = _resample_to_grid(np.array([]), np.array([]), np.array([1.0]))
        assert np.isnan(out).all()


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

    def test_fidelity_table_renders_reports(self):
        from repro.core.analysis import FidelityReport
        from repro.harness import fidelity_table

        reports = [
            FidelityReport(
                problem="p1", samples=60, correlation=0.91,
                tail_correlation=0.55, tail_fraction=0.2,
                rank_agreement=0.87, mean_abs_error_log2=0.42,
            ),
            FidelityReport(
                problem="p2", samples=60, correlation=0.78,
                tail_correlation=0.31, tail_fraction=0.2,
                rank_agreement=0.70, mean_abs_error_log2=0.80,
            ),
        ]
        text = fidelity_table(reports, title="fidelity")
        lines = text.splitlines()
        assert lines[0] == "fidelity"
        assert "spearman" in lines[1]
        assert any("p1" in line and "0.870" in line for line in lines)
        assert any("p2" in line and "0.700" in line for line in lines)

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
