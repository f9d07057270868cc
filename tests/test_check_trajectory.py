"""Unit tests for the benchmark-trajectory gate's comparison logic."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_trajectory",
    Path(__file__).parent.parent / "benchmarks" / "check_trajectory.py",
)
check_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_trajectory)


class TestDirection:
    @pytest.mark.parametrize("key,expected", [
        ("served_rps", "up"),
        ("speedup", "up"),
        ("hit_rate", "up"),
        ("p99_ms", "down"),
        ("mean_latency_s", "down"),
        ("throughput_ratio", "up"),   # explicitly throughput, not latency
        ("latency_ratio", "down"),    # lower-is-better wins mixed names
        ("unix_time", None),
        ("iterations_per_request", None),  # config constant, not a metric
        ("collapsed", None),          # undirected counter: context only
        ("count", None),              # a volume, not a latency
        ("sample_count", None),
        ("train_mse", None),          # "_ms" must not match inside "mse"
        ("surrogate_mse", None),
        ("oracle_query_ms", "down"),  # BENCH_step_costs.json's steps
        ("oracle_batch_1_ms", "down"),
        ("oracle_batch_64_ms", "down"),
        ("surrogate_fwd_bwd_ms", "down"),
        ("surrogate_fwd_bwd_paper_ms", "down"),
        ("surrogate_predict_ms", "down"),
        ("decode_project_ms", "down"),
        ("map_space_sample_ms", "down"),
        ("map_space_project_ms", "down"),
        ("map_space_neighbor_ms", "down"),
    ])
    def test_key_directions(self, key, expected):
        assert check_trajectory._direction(key) == expected


class TestCompare:
    def _docs(self, committed_value, fresh_value, key="served_rps"):
        return ({"results": {key: committed_value}},
                {"results": {key: fresh_value}})

    def test_within_band_passes(self):
        committed, fresh = self._docs(100.0, 80.0)
        regressions, checked = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert regressions == [] and len(checked) == 1

    def test_regression_beyond_band_fails(self):
        committed, fresh = self._docs(100.0, 70.0)
        regressions, _ = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert len(regressions) == 1
        assert "served_rps" in regressions[0]

    def test_lower_is_better_gates_the_other_way(self):
        committed, fresh = self._docs(100.0, 130.0, key="p99_ms")
        regressions, _ = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert len(regressions) == 1
        committed, fresh = self._docs(100.0, 120.0, key="p99_ms")
        regressions, _ = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert regressions == []

    def test_improvements_never_fail(self):
        committed, fresh = self._docs(100.0, 500.0)
        regressions, _ = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert regressions == []

    def test_lists_and_bools_are_not_gated(self):
        committed = {"times_s": [1.0, 2.0], "enabled": True,
                     "served_rps": 10.0}
        fresh = {"times_s": [9.0, 9.0], "enabled": False,
                 "served_rps": 10.0}
        regressions, checked = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert regressions == [] and len(checked) == 1

    def test_missing_fresh_leaf_is_skipped(self):
        regressions, checked = check_trajectory.compare_documents(
            {"served_rps": 10.0}, {"other_rps": 10.0}, band=0.25
        )
        assert regressions == [] and checked == []

    def test_count_under_a_latency_dict_is_context_not_a_gate(self):
        """Direction comes from the leaf key alone: ``latency_ms.count``
        is a request count, and serving *more* requests must never read
        as a latency regression just because the parent dict says
        latency."""
        committed = {"latency_ms": {"count": 100, "p99_ms": 5.0}}
        fresh = {"latency_ms": {"count": 200, "p99_ms": 5.0}}
        regressions, checked = check_trajectory.compare_documents(
            committed, fresh, band=0.25
        )
        assert regressions == []
        assert checked == [c for c in checked if "p99_ms" in c]
        assert len(checked) == 1


def test_committed_step_cost_snapshot_gates_every_step():
    """The nightly lane ratchets each per-step cost, decode+project
    included, against the committed snapshot."""
    snapshot = json.loads(
        (Path(check_trajectory.__file__).parent / "trajectory"
         / "BENCH_step_costs.json").read_text()
    )
    _, checked = check_trajectory.compare_documents(snapshot, snapshot, band=0.25)
    assert sorted(line.split(":")[0] for line in checked) == [
        "results.decode_project_ms", "results.map_space_neighbor_ms",
        "results.map_space_project_ms", "results.map_space_sample_ms",
        "results.oracle_batch_1_ms", "results.oracle_batch_64_ms",
        "results.oracle_query_ms", "results.surrogate_fwd_bwd_ms",
        "results.surrogate_fwd_bwd_paper_ms", "results.surrogate_predict_ms",
    ]


class TestMain:
    def _write(self, directory, value):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_demo.json").write_text(
            json.dumps({"results": {"served_rps": value}})
        )

    def test_exit_codes(self, tmp_path, capsys):
        fresh, committed = tmp_path / "fresh", tmp_path / "committed"
        self._write(fresh, 95.0)
        self._write(committed, 100.0)
        argv = ["--fresh", str(fresh), "--committed", str(committed)]
        assert check_trajectory.main(argv) == 0
        self._write(fresh, 10.0)
        assert check_trajectory.main(argv) == 1
        assert check_trajectory.main(
            ["--fresh", str(tmp_path / "empty"), "--committed",
             str(committed)]
        ) == 2
        capsys.readouterr()

    def test_update_ratchets_the_snapshot(self, tmp_path, capsys):
        fresh, committed = tmp_path / "fresh", tmp_path / "committed"
        self._write(fresh, 10.0)
        self._write(committed, 100.0)
        argv = ["--fresh", str(fresh), "--committed", str(committed)]
        assert check_trajectory.main(argv) == 1
        assert check_trajectory.main(argv + ["--update"]) == 0
        assert check_trajectory.main(argv) == 0
        capsys.readouterr()
