"""Tests for CSV/JSON curve export."""

import csv

import numpy as np
import pytest

from repro.harness import MethodCurve, curves_to_csv, curves_to_json, load_curves_json


@pytest.fixture
def curves():
    def make(name, finals):
        values = np.asarray(finals, dtype=float)
        return MethodCurve(
            method=name,
            problem="toy",
            grid=np.arange(1.0, len(values) + 1),
            mean_best_norm_edp=values,
            std_best_norm_edp=values * 0.1,
            runs=3,
        )

    return {"MM": make("MM", [9, 4, 2]), "SA": make("SA", [9, 8, 7])}


class TestCsv:
    def test_long_format(self, curves, tmp_path):
        path = tmp_path / "curves.csv"
        curves_to_csv(curves, path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["problem", "method", "grid", "mean_best_norm_edp", "std"]
        assert len(rows) == 1 + 6  # header + 2 methods x 3 points
        methods = {row[1] for row in rows[1:]}
        assert methods == {"MM", "SA"}

    def test_values_roundtrip_textually(self, curves, tmp_path):
        path = tmp_path / "curves.csv"
        curves_to_csv(curves, path)
        content = path.read_text()
        assert "toy,MM,3,2" in content


class TestJson:
    def test_roundtrip(self, curves, tmp_path):
        path = tmp_path / "curves.json"
        curves_to_json(curves, path)
        loaded = load_curves_json(path)
        assert set(loaded) == {"MM", "SA"}
        for name in curves:
            np.testing.assert_allclose(
                loaded[name].mean_best_norm_edp, curves[name].mean_best_norm_edp
            )
            assert loaded[name].runs == curves[name].runs
            assert loaded[name].problem == "toy"
            assert loaded[name].final_norm_edp == curves[name].final_norm_edp


class TestSearchResultJson:
    def test_roundtrip(self, tmp_path, conv1d_space):
        from repro.engine import make_searcher
        from repro.harness import load_result_json, result_to_json

        result = make_searcher("random", conv1d_space).run(12, seed=0)
        path = tmp_path / "trace.json"
        result_to_json(result, path)
        loaded = load_result_json(path)
        assert loaded.searcher == result.searcher
        assert loaded.problem == result.problem
        assert loaded.mappings == result.mappings
        assert loaded.objective_values == result.objective_values
        assert loaded.best_mapping == result.best_mapping
        assert loaded.wall_time == result.wall_time


class TestResponseExport:
    def test_response_file_roundtrip(self, tmp_path):
        """response_to_json and the HTTP gateway share one codec: files
        written here load back bit-equal through MappingResponse.from_dict."""
        from repro.costmodel.accelerator import small_accelerator
        from repro.engine import EngineConfig, MappingEngine, MappingRequest
        from repro.harness import load_response_json, response_to_json
        from repro.workloads import make_conv1d

        engine = MappingEngine(small_accelerator(), EngineConfig())
        response = engine.map(
            MappingRequest(make_conv1d("export_t", w=32, r=3),
                           searcher="random", iterations=10, seed=4,
                           tag="export")
        )
        path = tmp_path / "response.json"
        response_to_json(response, path)
        loaded = load_response_json(path)
        assert loaded.tag == "export"
        assert loaded.mapping == response.mapping
        assert loaded.stats == response.stats
        assert loaded.result.objective_values == response.result.objective_values

    def test_traceless_export(self, tmp_path):
        from repro.costmodel.accelerator import small_accelerator
        from repro.engine import EngineConfig, MappingEngine, MappingRequest
        from repro.harness import load_response_json, response_to_json
        from repro.workloads import make_conv1d

        engine = MappingEngine(small_accelerator(), EngineConfig())
        response = engine.map(
            MappingRequest(make_conv1d("export_u", w=32, r=3),
                           searcher="random", iterations=10, seed=4)
        )
        path = tmp_path / "response.json"
        response_to_json(response, path, include_trace=False)
        loaded = load_response_json(path)
        assert loaded.mapping == response.mapping
        assert loaded.n_evaluations == response.n_evaluations
