"""CI smoke entry point: ``python -m repro.engine --selftest``.

Exercises the full serving path end to end in well under a minute: tiny
surrogate training, every registered searcher through the registry (each
running the batched ask/tell driver), the batched oracle path (stacked
surrogate forward + cache hit/miss partitioning checked against the scalar
path), a coalesced batch checked bit-identical against solo serving, and
the response serialization codec.  Exits non-zero on any failure, so CI
can gate on it without pytest.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.pipeline import MindMappingsConfig
from repro.core.trainer import TrainingConfig
from repro.costmodel.accelerator import small_accelerator
from repro.engine.engine import EngineConfig, MappingEngine, MappingRequest
from repro.engine.registry import searcher_names
from repro.utils.smoke import check as _check
from repro.workloads.conv1d import make_conv1d


def _selftest_engine() -> MappingEngine:
    accelerator = small_accelerator()
    config = EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=600,
            n_problems=2,
            training=TrainingConfig(hidden_layers=(16, 16), epochs=3),
        ),
        train_seed=0,
        training_problems={
            "conv1d": (
                make_conv1d("selftest_train_a", w=48, r=3),
                make_conv1d("selftest_train_b", w=64, r=5),
            )
        },
    )
    return MappingEngine(accelerator, config)


def selftest(verbose: bool = True) -> int:
    started = time.perf_counter()
    engine = _selftest_engine()
    problem = make_conv1d("selftest_target", w=32, r=5)

    def say(message: str) -> None:
        if verbose:
            print(f"[selftest] {message}")

    names = searcher_names()
    expected = {"annealing", "exhaustive", "genetic", "gradient", "random", "rl"}
    _check(expected <= set(names), f"registry missing {expected - set(names)}")
    say(f"registry: {', '.join(names)}")

    # Every registered searcher serves a small request through the engine.
    for name in names:
        iterations = 30 if name != "exhaustive" else 200
        response = engine.map(
            MappingRequest(problem, searcher=name, iterations=iterations, seed=1)
        )
        _check(response.norm_edp >= 1.0 - 1e-9,
               f"{name}: norm EDP {response.norm_edp} below lower bound")
        _check(response.n_evaluations >= 1, f"{name}: no evaluations recorded")
        say(f"{name:>10}: norm EDP {response.norm_edp:8.2f} "
            f"({response.n_evaluations} evals, {response.total_time_s * 1e3:.0f} ms)")

    # Batched oracle path: evaluate_many must agree with the scalar loop,
    # for the memoized true-cost oracle (with exact hit/miss accounting)
    # and for the surrogate's stacked forward pass.
    from repro.engine.oracle import SurrogateOracle
    from repro.mapspace.space import MapSpace

    space = MapSpace(problem, engine.accelerator)
    population = space.sample_many(32, seed=7)
    before = engine.oracle_stats()
    batched = engine.oracle.evaluate_many(population, problem)
    scalar = [engine.cost_model.evaluate_edp(m, problem) for m in population]
    for left, right in zip(batched, scalar):
        _check(abs(left - right) <= 1e-9 * abs(right),
               "cached oracle evaluate_many != scalar path")
    after = engine.oracle_stats()
    new_queries = (after.hits + after.misses) - (before.hits + before.misses)
    _check(new_queries == len(population),
           f"batch of {len(population)} counted {new_queries} queries")
    say(f"batched oracle: {len(population)} candidates, counters exact")

    surrogate_oracle = SurrogateOracle(engine.surrogate_for(problem.algorithm))
    stacked = surrogate_oracle.evaluate_many(population, problem)
    for mapping, value in zip(population, stacked):
        _check(abs(value - surrogate_oracle.evaluate_edp(mapping, problem)) < 1e-9,
               "surrogate evaluate_many != scalar prediction")
    say("surrogate oracle: stacked forward == scalar predictions")

    # Ask/tell parity: run() must equal a hand-rolled protocol driver.
    from repro.engine.registry import make_searcher

    searcher = make_searcher("genetic", space, population_size=8)
    via_run = searcher.run(30, seed=5)
    budget = searcher.make_budget(30)
    searcher.reset(5, iterations=30)
    while not budget.exhausted:
        batch = searcher.ask()
        if not batch:
            break
        values = budget.evaluate_many(batch)
        searcher.tell(batch[: len(values)], values)
    via_driver = budget.result(searcher.name, problem.name)
    _check(via_run.mappings == via_driver.mappings,
           "ask/tell driver diverged from run()")
    say("ask/tell: hand-rolled driver == run()")

    # Coalesced batch matches solo serving bit-for-bit: the serve-layer
    # cohort unions same-problem oracle batches, gradient requests run
    # their own fused path — neither may change any response.
    requests = [
        MappingRequest(problem, searcher=searcher, iterations=40, seed=seed,
                       tag=f"{searcher}/{seed}")
        for searcher in ("gradient", "annealing", "random")
        for seed in range(2)
    ]
    sequential = [engine.map(request) for request in requests]
    coalesced = engine.map_batch(requests)
    for left, right in zip(sequential, coalesced):
        _check(left.mapping == right.mapping, "map_batch nondeterministic")
        _check(left.stats.edp == right.stats.edp, "map_batch EDP mismatch")
        _check(left.result.objective_values == right.result.objective_values,
               "map_batch changed a search trace")
    say("map_batch: coalesced cohort == solo serving (traces bit-identical)")

    # Serialization round-trip of the full response trace.
    from repro.search.base import SearchResult

    payload = sequential[0].to_dict(include_trace=True)
    restored = SearchResult.from_dict(payload["result"])
    _check(restored.best_mapping == sequential[0].mapping,
           "JSON round-trip changed the best mapping")
    say("response JSON round-trip ok")

    cache = engine.oracle_stats()
    say(f"oracle cache: {cache.hits} hits / {cache.misses} misses "
        f"(hit rate {cache.hit_rate:.0%})")
    say(f"PASS in {time.perf_counter() - started:.1f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Mind Mappings serving engine utilities.",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="run the end-to-end smoke test (CI gate)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(verbose=not args.quiet)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
