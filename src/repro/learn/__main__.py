"""CI smoke gate: ``python -m repro.learn --selftest``.

Drives the full online-learning loop in seconds: a deliberately *cold*
Phase-1 surrogate (trained on off-distribution shapes with a toy budget),
real served traffic through the engine (whose oracle misses and finalized
winners feed the replay taps), background-style lifecycle steps, a gated
hot-swap into the engine, registry persistence across a fresh process-like
reload, rejection of a poisoned candidate, and the serving-layer metrics
wiring.  Exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.pipeline import MindMappingsConfig
from repro.core.trainer import TrainingConfig
from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.learn.gate import GateConfig, validate_swap
from repro.learn.lifecycle import LearnConfig, OnlineLearner
from repro.learn.registry import ModelRegistry
from repro.learn.replay import ReplayConfig
from repro.learn.trainer import OnlineTrainerConfig
from repro.utils.smoke import check as _check
from repro.workloads.conv1d import make_conv1d


def _cold_engine() -> MappingEngine:
    """An engine whose conv1d surrogate is cold for the serving traffic:
    tiny training budget over shapes far from the target problem."""
    config = EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=400,
            n_problems=2,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=2),
        ),
        train_seed=0,
        training_problems={
            "conv1d": (
                make_conv1d("cold_train_a", w=8, r=2),
                make_conv1d("cold_train_b", w=12, r=3),
            )
        },
    )
    return MappingEngine(small_accelerator(), config)


def selftest(verbose: bool = True) -> int:
    started = time.perf_counter()

    def say(message: str) -> None:
        if verbose:
            print(f"[learn-selftest] {message}")

    engine = _cold_engine()
    target = make_conv1d("learn_target", w=48, r=5)
    registry_root = Path(tempfile.mkdtemp(prefix="repro-learn-selftest-"))
    registry = ModelRegistry(registry_root)
    learner = OnlineLearner(
        engine,
        LearnConfig(
            replay=ReplayConfig(
                capacity_per_problem=256,
                holdout_capacity_per_problem=96,
                holdout_every=4,
            ),
            trainer=OnlineTrainerConfig(steps=250, batch_size=64),
            gate=GateConfig(min_samples=24),
            min_new_samples=128,
        ),
        registry=registry,
    ).attach()

    frozen = engine.surrogate_for(target.algorithm)  # Phase 1, cold
    say(f"cold Phase-1 surrogate trained "
        f"({frozen.network.num_parameters()} parameters)")

    # Served traffic: oracle-driven searchers miss into the cached oracle,
    # every finalized winner is tapped too — all free labeled samples.
    swapped = False
    for round_index in range(6):
        for searcher in ("random", "annealing"):
            for offset in range(3):
                seed = 1000 * round_index + 10 * offset + (
                    5 if searcher == "annealing" else 0
                )
                engine.map(MappingRequest(
                    target, searcher=searcher, iterations=60, seed=seed,
                ))
        reports = learner.step()
        for report in reports:
            say(report.describe())
        if learner.swaps.value >= 1:
            swapped = True
            break
    snapshot = learner.metrics_snapshot()
    _check(snapshot["observed"] > 0, "taps observed no traffic")
    buffer = learner.replay_buffer(target.algorithm)
    _check(buffer is not None and buffer.depth > 0, "replay buffer stayed empty")
    say(f"replay: depth={buffer.depth} holdout={buffer.holdout_depth} "
        f"observed={snapshot['observed']}")
    _check(swapped,
           f"no validated swap after 6 rounds "
           f"(rejected={learner.rejected_swaps.value})")

    current = engine.surrogate_for(target.algorithm)
    _check(current is not frozen, "engine still serves the frozen surrogate")
    source = engine.loaded_algorithms()[target.algorithm]
    _check(source.startswith("online:v"), f"unexpected swap source {source!r}")
    report = learner.last_report(target.algorithm)
    _check(report is not None and report.accepted, "no accepted gate report")
    _check(report.candidate_spearman >= report.incumbent_spearman,
           "accepted candidate does not match/beat incumbent rank correlation")
    say(f"hot-swapped {source}: held-out spearman "
        f"{report.incumbent_spearman:.3f} -> {report.candidate_spearman:.3f}")

    # The gate must refuse a poisoned candidate: scrambled weights rank
    # mappings at chance, so the incumbent keeps serving.
    poisoned = current.clone()
    rng = np.random.default_rng(0)
    for parameter in poisoned.network.parameters():
        parameter.data[...] = rng.normal(size=parameter.data.shape)
    holdout_x, truth = buffer.holdout_truth()
    verdict = validate_swap(poisoned, current, holdout_x, truth,
                            learner.config.gate, algorithm=target.algorithm)
    _check(not verdict.accepted, "gate accepted a poisoned candidate")
    say(f"poisoned candidate rejected ({verdict.reason})")

    # Registry: versions survive a fresh registry over the same directory
    # (process-restart shape) and reload with fingerprints verified.
    version = registry.latest_version(target.algorithm)
    _check(version is not None and version >= 1, "no registry version published")
    reopened = ModelRegistry(registry_root)
    _check(reopened.latest_version(target.algorithm) == version,
           "registry index lost across reopen")
    pipeline, loaded_version = reopened.load(target.algorithm, engine.accelerator)
    _check(loaded_version == version, "reloaded wrong version")
    _check(pipeline.surrogate.algorithm == target.algorithm,
           "reloaded artifact for the wrong algorithm")
    say(f"registry: v{version} persisted and reloaded from {registry_root}")

    # Serving wiring: the learner's metrics ride the server snapshot
    # (and therefore /v1/metrics on the HTTP gateway).
    from repro.serve.server import MappingServer, ServeConfig

    with MappingServer(engine, ServeConfig(max_batch=8, max_wait_s=0.01),
                       learner=learner) as server:
        server.map(MappingRequest(target, searcher="random", iterations=20, seed=7))
        served_snapshot = server.metrics_snapshot()
    learning = served_snapshot.get("learning")
    _check(isinstance(learning, dict), "server snapshot missing 'learning'")
    _check(learning["swaps"] >= 1, "server snapshot lost swap count")
    _check(target.algorithm in learning["versions"], "server snapshot lost versions")
    _check(target.algorithm in learning["gate"], "server snapshot lost gate scores")
    say("server metrics expose replay depth, versions, gate scores, swaps")

    learner.detach()
    say(f"PASS in {time.perf_counter() - started:.1f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.learn",
        description="Online surrogate lifecycle utilities.",
    )
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end online-learning smoke test "
                             "(CI gate)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(verbose=not args.quiet)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
