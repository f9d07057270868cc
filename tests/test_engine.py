"""MappingEngine: serving behaviour, artifact cache, batch determinism."""

import numpy as np
import pytest

from repro.core import MindMappings, MindMappingsConfig, TrainingConfig
from repro.costmodel import algorithmic_minimum
from repro.costmodel.accelerator import small_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest
from repro.search import SearchResult
from repro.workloads import make_conv1d


TRAIN_PROBLEMS = (
    make_conv1d("eng_train_a", w=48, r=3),
    make_conv1d("eng_train_b", w=64, r=5),
)

TARGETS = (
    make_conv1d("eng_target_a", w=32, r=5),
    make_conv1d("eng_target_b", w=56, r=3),
)


def _engine_config():
    return EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=600,
            n_problems=2,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
        ),
        train_seed=0,
        training_problems={"conv1d": TRAIN_PROBLEMS},
    )


@pytest.fixture(scope="module")
def engine():
    return MappingEngine(small_accelerator(), _engine_config())


class TestMap:
    def test_gradient_response_complete(self, engine):
        response = engine.map(
            MappingRequest(TARGETS[0], searcher="gradient", iterations=40, seed=1,
                           tag="req-1")
        )
        assert response.tag == "req-1"
        assert response.problem == TARGETS[0].name
        assert response.searcher == "gradient"
        assert response.norm_edp >= 1.0 - 1e-9
        assert response.stats.edp > 0
        assert 1 <= response.n_evaluations <= 40
        assert response.search_time_s <= response.total_time_s
        assert response.provenance["accel_fingerprint"] == engine.accelerator.fingerprint()
        assert len(response.convergence) == response.n_evaluations

    def test_alias_and_baseline_searchers(self, engine):
        for name in ("sa", "random", "ga", "rl", "exhaustive"):
            response = engine.map(
                MappingRequest(TARGETS[0], searcher=name, iterations=20, seed=2)
            )
            assert response.norm_edp >= 1.0 - 1e-9
            assert response.n_evaluations >= 1

    def test_map_is_deterministic_per_seed(self, engine):
        request = MappingRequest(TARGETS[1], searcher="gradient", iterations=30, seed=9)
        a = engine.map(request)
        b = engine.map(request)
        assert a.mapping == b.mapping
        assert a.stats.edp == b.stats.edp

    def test_searcher_config_forwarded(self, engine):
        response = engine.map(
            MappingRequest(
                TARGETS[0],
                searcher="genetic",
                iterations=20,
                seed=0,
                searcher_config={"population_size": 4},
            )
        )
        assert response.n_evaluations <= 20

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            MappingRequest(TARGETS[0], iterations=0)

    def test_time_budget_field_removed(self):
        """Evaluations are a request's one budget: the wall-clock budget
        is gone, not silently ignored."""
        with pytest.raises(TypeError):
            MappingRequest(TARGETS[0], time_budget_s=1.0)

    def test_oracle_is_one_cache_over_the_cost_model(self):
        """Every engine prices through one bounded ``CachedOracle`` over its
        own ``CostModel``, so a fresh engine already has counters to report."""
        from repro.costmodel import CachedOracle
        from repro.engine.engine import ORACLE_CACHE_SIZE

        engine = MappingEngine(small_accelerator(), _engine_config())
        assert isinstance(engine.oracle, CachedOracle)
        assert engine.oracle.inner is engine.cost_model
        assert engine.oracle.maxsize == ORACLE_CACHE_SIZE == 65_536
        stats = engine.oracle_stats()
        assert (stats.hits, stats.misses, stats.prewarmed, stats.size) == (0, 0, 0, 0)

    def test_gradient_response_reports_true_cost(self, engine):
        """A surrogate-driven search's winner is reported at its true cost:
        the response's stats are the cost model's own for that mapping."""
        response = engine.map(
            MappingRequest(TARGETS[1], searcher="gradient", iterations=20, seed=4)
        )
        assert response.stats == engine.cost_model.evaluate(
            response.mapping, TARGETS[1]
        )

    def test_search_traffic_flows_through_shared_oracle(self, engine):
        """Baseline searchers price candidates via the engine's memoized
        oracle, not a private CostModel — in-search queries are observable
        (and cacheable) at the engine."""
        engine.oracle.clear()
        engine.map(MappingRequest(TARGETS[0], searcher="random", iterations=12, seed=8))
        snapshot = engine.oracle_stats()
        assert snapshot.queries >= 12  # 12 in-search + 1 reporting query

    def test_custom_surrogate_searcher_gets_injection(self, engine):
        """Surrogate injection is signature-driven, not a hardcoded name
        list: any registered searcher with a `surrogate` parameter works."""
        from repro.core import GradientSearcher
        from repro.engine import register_searcher

        try:
            register_searcher("test-grad-like")(GradientSearcher)
        except ValueError:
            pass  # already registered by a previous fixture reuse
        response = engine.map(
            MappingRequest(TARGETS[0], searcher="test-grad-like", iterations=10, seed=2)
        )
        assert response.norm_edp >= 1.0 - 1e-9
        assert "surrogate" in response.provenance

    def test_response_serializes(self, engine):
        response = engine.map(
            MappingRequest(TARGETS[0], searcher="random", iterations=10, seed=3)
        )
        payload = response.to_dict(include_trace=True)
        assert payload["problem"] == TARGETS[0].name
        restored = SearchResult.from_dict(payload["result"])
        assert restored.best_mapping == response.mapping

    def test_response_wire_form_carries_no_search_clock(self, engine):
        """The embedded trace is mappings and objective values only; the
        response's own timings are its two service times."""
        response = engine.map(
            MappingRequest(TARGETS[0], searcher="annealing", iterations=10, seed=3)
        )
        payload = response.to_dict(include_trace=True)
        assert set(payload["result"]) == {
            "searcher", "problem", "mappings", "objective_values",
        }
        assert {key for key in payload if key.endswith("_s")} == {
            "search_time_s", "total_time_s",
        }


class TestBatchDeterminism:
    """Acceptance: batched serving matches sequential serving bit for bit —
    against MindMappings.find_mapping for gradient requests, and against
    solo engine.map for coalesced oracle-searcher cohorts."""

    def test_map_batch_matches_sequential_mindmappings(self, engine):
        requests = [
            MappingRequest(TARGETS[i % 2], searcher="gradient", iterations=30,
                           seed=seed)
            for i, seed in enumerate(range(8))
        ]
        responses = engine.map_batch(requests)
        assert [r.problem for r in responses] == [
            req.problem.name for req in requests
        ]

        config = _engine_config()
        mm = MindMappings.train(
            "conv1d",
            engine.accelerator,
            config.mm_config,
            problems=TRAIN_PROBLEMS,
            seed=config.train_seed,
        )
        for request, response in zip(requests, responses):
            mapping, stats = mm.find_mapping(
                request.problem, iterations=request.iterations, seed=request.seed
            )
            assert response.mapping == mapping
            assert response.stats.edp == stats.edp
            bound = algorithmic_minimum(request.problem, engine.accelerator).edp
            assert response.norm_edp == pytest.approx(stats.edp / bound)

    def test_coalesced_cohort_bit_identical_to_solo(self, engine):
        """The core serving guarantee: a same-problem cohort of oracle
        searchers shares prewarmed vectorized oracle rounds, yet every
        response — winner, true stats, and the full objective trace — is
        bit-identical to serving that request alone."""
        requests = [
            MappingRequest(TARGETS[0], searcher=name, iterations=25, seed=seed)
            for name in ("random", "annealing", "genetic")
            for seed in range(3)
        ]
        engine.oracle.clear()
        solo = [engine.map(request) for request in requests]
        engine.oracle.clear()
        coalesced = engine.map_batch(requests)
        for left, right in zip(solo, coalesced):
            assert left.mapping == right.mapping
            assert left.stats == right.stats
            assert left.result.mappings == right.result.mappings
            assert left.result.objective_values == right.result.objective_values
        # The cohort actually coalesced: the scheduler prewarmed entries.
        assert engine.oracle_stats().prewarmed > 0

    def test_mixed_searcher_batch(self, engine):
        requests = [
            MappingRequest(TARGETS[0], searcher=name, iterations=15, seed=4)
            for name in ("gradient", "random", "annealing", "genetic")
        ]
        responses = engine.map_batch(requests)
        assert [r.searcher for r in responses] == [
            "gradient", "random", "annealing", "genetic"
        ]

    def test_workers_parameter_removed(self, engine):
        """The deprecated thread-pool knob is gone, not silently ignored."""
        with pytest.raises(TypeError):
            engine.map_batch([], workers=2)


class TestSharedSurrogateReadOnly:
    """Searches read the shared surrogate's weights but never write them:
    no gradient request, solo or batched, single- or multi-restart, adds
    into any parameter's ``.grad``."""

    def test_gradient_searches_leave_weight_grads_untouched(self, engine):
        parameters = engine.surrogate_for("conv1d").network.parameters()
        before = [None if p.grad is None else p.grad.copy() for p in parameters]
        requests = [
            MappingRequest(TARGETS[i % 2], searcher="gradient", iterations=25,
                           seed=seed, searcher_config={"restarts": restarts})
            for i, (seed, restarts) in enumerate([(1, 1), (2, 4), (3, 1), (4, 4)])
        ]
        for request in requests:
            engine.map(request)
        engine.map_batch(requests)
        for parameter, snapshot in zip(parameters, before):
            if snapshot is None:
                assert parameter.grad is None
            else:
                assert np.array_equal(parameter.grad, snapshot)


class TestArtifactCache:
    def test_surrogate_persisted_and_reloaded(self, tmp_path):
        config = _engine_config()
        config.artifact_dir = tmp_path
        first = MappingEngine(small_accelerator(), config)
        request = MappingRequest(TARGETS[0], searcher="gradient", iterations=20, seed=5)
        response_first = first.map(request)
        assert "trained+saved" in first.loaded_algorithms()["conv1d"]
        artifacts = list(tmp_path.glob("conv1d-*.npz"))
        assert len(artifacts) == 1
        assert small_accelerator().fingerprint() in artifacts[0].name

        second = MappingEngine(small_accelerator(), config)
        response_second = second.map(request)
        assert second.loaded_algorithms()["conv1d"].startswith("loaded:")
        assert response_second.mapping == response_first.mapping
        assert response_second.stats.edp == response_first.stats.edp

    def test_artifact_not_shared_across_accelerators(self, tmp_path):
        """A different accelerator gets its own artifact, not a stale one."""
        config = _engine_config()
        config.artifact_dir = tmp_path
        small = MappingEngine(small_accelerator(), config)
        small.surrogate_for("conv1d")

        other_accel = small_accelerator()
        other_accel = type(other_accel)(
            name="other", num_pes=8, l1_bytes=4 * 1024, l2_bytes=32 * 1024,
            l1_banks=4, l2_banks=8,
        )
        other = MappingEngine(other_accel, config)
        other.surrogate_for("conv1d")
        assert "trained" in other.loaded_algorithms()["conv1d"]
        assert len(list(tmp_path.glob("conv1d-*.npz"))) == 2

    def test_different_training_config_gets_own_artifact(self, tmp_path):
        """Two engines sharing an artifact dir but differing in training
        recipe must not serve each other's surrogates."""
        weak = _engine_config()
        weak.artifact_dir = tmp_path
        MappingEngine(small_accelerator(), weak).surrogate_for("conv1d")

        strong = _engine_config()
        strong.artifact_dir = tmp_path
        strong.mm_config.training.epochs = 5  # different recipe
        engine = MappingEngine(small_accelerator(), strong)
        engine.surrogate_for("conv1d")
        assert "trained" in engine.loaded_algorithms()["conv1d"]
        assert len(list(tmp_path.glob("conv1d-*.npz"))) == 2

    def test_corrupt_artifact_treated_as_miss(self, tmp_path):
        config = _engine_config()
        config.artifact_dir = tmp_path
        MappingEngine(small_accelerator(), config).surrogate_for("conv1d")
        artifact = next(tmp_path.glob("conv1d-*.npz"))
        artifact.write_bytes(b"not an npz")
        fresh = MappingEngine(small_accelerator(), config)
        with pytest.warns(UserWarning, match="unreadable surrogate artifact"):
            fresh.surrogate_for("conv1d")
        assert "trained+saved" in fresh.loaded_algorithms()["conv1d"]
        # The bad artifact was overwritten with a loadable one.
        third = MappingEngine(small_accelerator(), config)
        third.surrogate_for("conv1d")
        assert third.loaded_algorithms()["conv1d"].startswith("loaded:")

    def test_install_pipeline_validates(self, engine):
        from repro.costmodel import default_accelerator

        pipeline = engine.pipeline_for("conv1d")
        other = MappingEngine(default_accelerator(), _engine_config())
        with pytest.raises(ValueError, match="fingerprint"):
            other.install_pipeline("conv1d", pipeline)
        with pytest.raises(ValueError, match="conv1d"):
            engine.install_pipeline("cnn-layer", pipeline)

    def test_oracle_cache_observable(self, engine):
        engine.oracle.clear()
        request = MappingRequest(TARGETS[0], searcher="random", iterations=10, seed=6)
        engine.map(request)
        engine.map(request)
        snapshot = engine.oracle_stats()
        assert snapshot.hits >= 1
