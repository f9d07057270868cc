"""Ablations over the Phase 2 design choices (paper section 4.2).

Compares Mind Mappings variants on one Table 1 problem:

* full method (projected GD + SA-accepted random injections),
* no random injections (pure PGD — tests the "avoiding local minima" story),
* the paper's literal update rule (raw gradient, no step normalization or
  escalation — documents our scaled-down adjustments), and
* a learning-rate sweep (the paper grid-searched lr and picked 1).

Also ablates the dataset sampling strategy (uniform vs hill-climb mix,
section 4.1.1 "improved sampling methods" future work).
"""

import math

import numpy as np

from conftest import add_report
from repro.core import GradientSearcher, TrainingConfig, generate_dataset, train_surrogate
from repro.costmodel import CostModel, algorithmic_minimum
from repro.harness import format_table
from repro.mapspace import MapSpace
from repro.workloads import problem_by_name

ITERATIONS = 400
RUNS = 3


def _true_best(result, model, problem, lower_bound):
    best = min(model.evaluate_edp(m, problem) for m in set(result.mappings))
    return best / lower_bound


def _evaluate_variant(space, surrogate, model, problem, lower_bound, **kwargs):
    scores = []
    for seed in range(RUNS):
        searcher = GradientSearcher(space, surrogate, **kwargs)
        result = searcher.run(ITERATIONS, seed=seed)
        scores.append(_true_best(result, model, problem, lower_bound))
    return float(np.mean(scores))


def test_ablation_search_variants(benchmark, accelerator, cnn_mm):
    problem = problem_by_name("ResNet_Conv4")
    space = MapSpace(problem, accelerator)
    model = CostModel(accelerator)
    lower_bound = algorithmic_minimum(problem, accelerator).edp

    variants = {
        "full method (default)": {},
        "no injections": {"inject_every": 10_000_000},
        "paper-literal update": {
            "normalize_gradient": False,
            "escalate_when_stuck": False,
        },
        "lr = 0.3": {"learning_rate": 0.3},
        "lr = 3.0": {"learning_rate": 3.0},
        "greedy injections (T=0)": {"initial_temperature": 1e-9},
    }

    def sweep():
        return {
            name: _evaluate_variant(
                space, cnn_mm.surrogate, model, problem, lower_bound, **kwargs
            )
            for name, kwargs in variants.items()
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [(name, f"{score:.2f}") for name, score in results.items()]
    table = format_table(
        ("variant", "mean best norm EDP"),
        rows,
        title=f"Phase 2 ablations on ResNet_Conv4 "
        f"({ITERATIONS} iterations x {RUNS} runs)",
    )
    add_report("Ablation: gradient-search variants", table)

    # Injections are the paper's guard against local minima: removing them
    # must not help by a large margin (and usually hurts).
    assert results["no injections"] > results["full method (default)"] * 0.7
    # All variants stay in a sane band.
    assert all(1.0 <= score < 100.0 for score in results.values())


def test_ablation_dataset_sampling(benchmark, accelerator):
    """Uniform vs hill-climb-mixed Phase 1 sampling (section 4.1.1)."""
    problem = problem_by_name("ResNet_Conv4")
    space = MapSpace(problem, accelerator)
    model = CostModel(accelerator)
    lower_bound = algorithmic_minimum(problem, accelerator).edp

    def sweep():
        results = {}
        for label, fraction in (("uniform (paper)", 0.0), ("50% hill-climb mix", 0.5)):
            dataset = generate_dataset(
                "cnn-layer", accelerator, 12_000, n_problems=10,
                elite_fraction=fraction, seed=3,
            )
            surrogate, _ = train_surrogate(dataset, TrainingConfig(epochs=20), seed=0)
            score = _evaluate_variant(
                space, surrogate, model, problem, lower_bound
            )
            mean_target = float(
                np.mean([dataset.codec.log2_norm_edp(r) for r in dataset.targets_raw])
            )
            results[label] = (score, mean_target)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (label, f"{score:.2f}", f"{mean_target:.2f}")
        for label, (score, mean_target) in results.items()
    ]
    table = format_table(
        ("sampling strategy", "mean best norm EDP", "dataset mean log2 norm EDP"),
        rows,
        title="Phase 1 sampling ablation (section 4.1.1 future-work direction)",
    )
    add_report("Ablation: dataset sampling", table)

    # The hill-climb mix must shift the training distribution toward the
    # low-cost tail (that is its mechanism).
    assert results["50% hill-climb mix"][1] < results["uniform (paper)"][1]
