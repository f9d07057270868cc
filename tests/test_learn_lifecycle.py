"""OnlineLearner: taps, background steps, gated hot-swap, hammer tests."""

import threading

import numpy as np
import pytest

from repro.core import MindMappings, MindMappingsConfig, TrainingConfig
from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.learn.gate import GateConfig
from repro.learn.lifecycle import LearnConfig, OnlineLearner
from repro.learn.registry import ModelRegistry
from repro.learn.replay import ReplayConfig
from repro.learn.trainer import OnlineTrainerConfig
from repro.workloads import make_conv1d

TARGET = make_conv1d("lc_target", w=48, r=5)


def _engine() -> MappingEngine:
    config = EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=300,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=2),
        ),
        train_seed=0,
        training_problems={
            "conv1d": (
                make_conv1d("lc_train_a", w=8, r=2),
                make_conv1d("lc_train_b", w=12, r=3),
            )
        },
    )
    return MappingEngine(small_accelerator(), config)


def _learn_config(**overrides) -> LearnConfig:
    defaults = dict(
        replay=ReplayConfig(
            capacity_per_problem=256,
            holdout_capacity_per_problem=96,
            holdout_every=4,
        ),
        trainer=OnlineTrainerConfig(steps=250, batch_size=64),
        gate=GateConfig(min_samples=24),
        min_new_samples=128,
    )
    defaults.update(overrides)
    return LearnConfig(**defaults)


def _traffic(engine, rounds=1, base_seed=0, iterations=60):
    for index in range(rounds):
        for searcher in ("random", "annealing"):
            for offset in range(3):
                engine.map(MappingRequest(
                    TARGET, searcher=searcher, iterations=iterations,
                    seed=base_seed + 100 * index + 10 * offset
                    + (5 if searcher == "annealing" else 0),
                ))


class TestTaps:
    def test_request_path_only_enqueues(self):
        """Serving with taps attached observes samples but trains nothing
        until the background step runs — zero learning on the hot path."""
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        _traffic(engine, rounds=1)
        assert learner.observed.value > 0
        assert learner.train_rounds.value == 0
        assert learner.replay_buffer("conv1d") is None  # not even ingested
        learner.ingest()
        assert learner.replay_buffer("conv1d").depth > 0

    def test_detach_removes_taps(self):
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        learner.detach()
        _traffic(engine, rounds=1)
        assert learner.observed.value == 0

    def test_tap_is_the_engine_oracles_miss_listener(self):
        """The learner's one tap is the miss listener of the engine's own
        oracle: attaching twice installs it once, detaching clears it."""
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config())
        assert engine.oracle._miss_listener is None
        learner.attach().attach()
        assert engine.oracle._miss_listener == learner._on_oracle_miss
        learner.detach()
        assert engine.oracle._miss_listener is None

    def test_finalize_tap_captures_winners(self):
        """Even surrogate-driven searches (no oracle misses mid-search)
        contribute their finalized winner."""
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        engine.map(MappingRequest(TARGET, searcher="gradient", iterations=10, seed=0))
        # The winner's final true-cost evaluation is the search's one
        # oracle miss.
        assert learner.observed.value == 1

    def test_winner_not_double_counted(self):
        """The finalize scoring re-prices the winner through the oracle (an
        upgrade miss); the sample must still be observed exactly once."""
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        engine.map(MappingRequest(TARGET, searcher="random", iterations=10, seed=0))
        stats = engine.oracle_stats()
        # Every unique candidate was observed once; the finalize upgrade
        # miss (counted in `misses`) was deliberately not re-reported.
        assert learner.observed.value == stats.misses - 1

    def test_cohort_observes_each_priced_mapping_once(self):
        """A served cohort prices through its shared prewarm, the members'
        own budgets and each finalize (a gradient winner is a fresh miss
        there); the tap sees every mapping the oracle priced exactly once."""
        from repro.costmodel.cache import problem_key
        from repro.serve.cohort import serve_batch

        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        problems = (TARGET, make_conv1d("lc_cohort_other", w=32, r=5))
        searchers = ("random", "annealing", "genetic", "gradient")
        serve_batch(engine, [
            MappingRequest(problems[seed % 2], searcher=searchers[seed // 2],
                           iterations=30, seed=seed)
            for seed in range(8)
        ])
        pairs = {
            (problem_key(problem), mapping)
            for problem, mappings, _, _ in learner._pending
            for mapping in mappings
        }
        stats = engine.oracle_stats()
        assert stats.prewarmed > 0 and learner.dropped.value == 0
        assert learner.observed.value == len(pairs) == stats.size

    def test_queue_bound_drops_oldest(self):
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config(max_pending=2)).attach()
        _traffic(engine, rounds=1)
        assert learner.dropped.value > 0
        with learner._pending_lock:
            assert len(learner._pending) <= 2


class TestLifecycle:
    def test_traffic_trains_gates_and_swaps(self):
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        frozen = engine.surrogate_for("conv1d")
        swapped = False
        for round_index in range(6):
            _traffic(engine, rounds=1, base_seed=1000 * round_index)
            learner.step()
            if learner.swaps.value:
                swapped = True
                break
        assert swapped
        assert engine.surrogate_for("conv1d") is not frozen
        assert engine.loaded_algorithms()["conv1d"].startswith("online:v")
        report = learner.last_report("conv1d")
        assert report is not None and report.accepted
        assert report.candidate_spearman >= report.incumbent_spearman

    def test_impossible_gate_keeps_incumbent(self):
        engine = _engine()
        learner = OnlineLearner(
            engine,
            _learn_config(gate=GateConfig(min_samples=24, min_spearman_gain=10.0)),
        ).attach()
        frozen = engine.surrogate_for("conv1d")
        _traffic(engine, rounds=2)
        reports = learner.step()
        assert learner.train_rounds.value >= 1
        assert learner.swaps.value == 0
        assert learner.rejected_swaps.value >= 1
        assert all(not report.accepted for report in reports)
        assert engine.surrogate_for("conv1d") is frozen

    def test_registry_records_accepted_swaps(self, tmp_path):
        engine = _engine()
        registry = ModelRegistry(tmp_path)
        learner = OnlineLearner(engine, _learn_config(), registry=registry).attach()
        for round_index in range(6):
            _traffic(engine, rounds=1, base_seed=1000 * round_index)
            learner.step()
            if learner.swaps.value:
                break
        assert registry.latest_version("conv1d") == 1
        meta = registry.metadata("conv1d", 1)
        assert "gate_spearman" in meta
        assert engine.loaded_algorithms()["conv1d"] == "online:v1"

    def test_rollback_reinstalls_prior_version(self, tmp_path):
        engine = _engine()
        registry = ModelRegistry(tmp_path)
        learner = OnlineLearner(engine, _learn_config(), registry=registry)
        # Two published versions (direct publishes stand in for two
        # accepted rounds).
        pipeline = engine.pipeline_for("conv1d")
        registry.publish(pipeline)
        variant = MindMappings(pipeline.surrogate.clone(), engine.accelerator)
        for parameter in variant.surrogate.network.parameters():
            parameter.data += 1e-3
        registry.publish(variant)
        restored = learner.rollback("conv1d")
        assert restored == 1
        assert engine.loaded_algorithms()["conv1d"] == "online:v1(rollback)"
        served = engine.surrogate_for("conv1d")
        for key, value in served.network.state_dict().items():
            np.testing.assert_array_equal(
                value, pipeline.surrogate.network.state_dict()[key]
            )

    def test_rollback_without_registry_raises(self):
        learner = OnlineLearner(_engine(), _learn_config())
        with pytest.raises(RuntimeError):
            learner.rollback("conv1d")

    def test_background_thread_runs_steps(self):
        engine = _engine()
        learner = OnlineLearner(
            engine, _learn_config(poll_interval_s=0.01)
        )
        with learner:
            _traffic(engine, rounds=1, iterations=40)
            deadline = threading.Event()
            for _ in range(200):  # up to ~2s for the daemon to ingest
                if learner.replay_buffer("conv1d") is not None:
                    break
                deadline.wait(0.01)
        assert learner.replay_buffer("conv1d") is not None
        assert learner.replay_buffer("conv1d").depth > 0
        # Context exit stopped the thread and detached the taps.
        assert learner._thread is None

    def test_metrics_snapshot_schema(self):
        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        for round_index in range(6):
            _traffic(engine, rounds=1, base_seed=1000 * round_index)
            learner.step()
            if learner.swaps.value:
                break
        snapshot = learner.metrics_snapshot()
        assert set(snapshot) >= {
            "pending", "observed", "dropped", "train_rounds", "swaps",
            "rejected_swaps", "replay", "versions", "gate", "last_train_loss",
        }
        assert snapshot["replay"]["conv1d"]["depth"] > 0
        assert snapshot["versions"]["conv1d"] >= 1
        assert snapshot["gate"]["conv1d"]["accepted"] is True

    def test_server_snapshot_carries_learning(self):
        from repro.serve.server import MappingServer, ServeConfig

        engine = _engine()
        learner = OnlineLearner(engine, _learn_config()).attach()
        with MappingServer(
            engine, ServeConfig(max_batch=4, max_wait_s=0.005), learner=learner
        ) as server:
            server.map(MappingRequest(TARGET, searcher="random",
                                      iterations=20, seed=3))
            snapshot = server.metrics_snapshot()
        assert "learning" in snapshot
        assert snapshot["learning"]["observed"] > 0


class TestHotSwapHammer:
    def test_swap_is_atomic_under_concurrent_serving(self):
        """Serving threads hammer gradient searches while the main thread
        hot-swaps surrogate versions as fast as it can: every response must
        be valid, every search must finish on a coherent surrogate object,
        and nothing may deadlock or tear."""
        engine = _engine()
        base = engine.pipeline_for("conv1d")
        versions = [base]
        for seed in (1, 2):
            surrogate = base.surrogate.clone()
            rng = np.random.default_rng(seed)
            for parameter in surrogate.network.parameters():
                parameter.data += rng.normal(scale=1e-3, size=parameter.data.shape)
            versions.append(MindMappings(surrogate, engine.accelerator))

        errors = []
        responses = []
        responses_lock = threading.Lock()
        stop = threading.Event()

        def serve(worker: int) -> None:
            try:
                for index in range(12):
                    response = engine.map(MappingRequest(
                        TARGET, searcher="gradient", iterations=8,
                        seed=worker * 100 + index,
                    ))
                    with responses_lock:
                        responses.append(response)
            except BaseException as error:  # noqa: BLE001 — report, don't hang
                errors.append(error)

        def swapper() -> None:
            index = 0
            while not stop.is_set():
                engine.install_pipeline(
                    "conv1d", versions[index % len(versions)],
                    source=f"hammer:v{index}",
                )
                index += 1

        workers = [
            threading.Thread(target=serve, args=(w,), daemon=True)
            for w in range(4)
        ]
        swap_thread = threading.Thread(target=swapper, daemon=True)
        swap_thread.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        stop.set()
        swap_thread.join(timeout=10)

        assert not errors, f"serving under hot-swap failed: {errors[:3]}"
        assert len(responses) == 4 * 12
        for response in responses:
            assert response.norm_edp >= 1.0 - 1e-9
            assert response.n_evaluations >= 1

    def test_inflight_search_keeps_resolved_surrogate(self):
        """A prepared search holds its surrogate through a swap: the
        object resolved at prepare time is what the searcher uses, even
        after install_pipeline replaces the engine's current version."""
        engine = _engine()
        prepared = engine._prepare_search(
            MappingRequest(TARGET, searcher="gradient", iterations=8, seed=0)
        )
        old_surrogate = prepared.searcher.surrogate
        replacement = MindMappings(
            engine.pipeline_for("conv1d").surrogate.clone(), engine.accelerator
        )
        engine.install_pipeline("conv1d", replacement, source="swap-test")
        assert prepared.searcher.surrogate is old_surrogate
        assert engine.surrogate_for("conv1d") is replacement.surrogate
        # The in-flight search still completes against its own version.
        result = prepared.searcher.run(8, seed=0)
        assert result.n_evaluations >= 1
