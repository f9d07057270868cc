"""Regenerate the frozen gradient-search fixture.

Run from the repository root after an *intentional* change to what Phase 2
computes (and only then — the fixture exists to catch unintentional drift,
e.g. from a rewrite of decode/projection that is meant to be bitwise
neutral):

    PYTHONPATH=src python tests/golden/generate_gradient_search_golden.py

A tiny CNN-layer surrogate is trained with a fixed seed, then four seeded
``gradient`` searches run on Table 1 layers (one with two lockstep
restarts).  For each, the best mapping, its true EDP from the scalar cost
model, and the complete surrogate objective trace are frozen to
``gradient_search_golden.json``.  ``tests/test_gradient_search_golden.py``
replays the searches and compares.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import MindMappings, MindMappingsConfig, TrainingConfig
from repro.costmodel import CostModel
from repro.costmodel.accelerator import default_accelerator
from repro.workloads import problem_by_name

GOLDEN_PATH = Path(__file__).parent / "gradient_search_golden.json"

#: Frozen Phase 1 recipe: small enough to train in about a second.
TRAIN_CONFIG = MindMappingsConfig(
    dataset_samples=800,
    n_problems=3,
    training=TrainingConfig(hidden_layers=(32, 32), epochs=4),
)
TRAIN_SEED = 0

#: (problem, seed, iterations, restarts) per frozen search.
SEARCHES = (
    ("ResNet_Conv4", 0, 60, 1),
    ("Inception_Conv2", 1, 60, 1),
    ("VGG_Conv2", 2, 60, 2),
    ("AlexNet_Conv2", 3, 60, 1),
)


def train_surrogate() -> MindMappings:
    return MindMappings.train(
        "cnn-layer", default_accelerator(), TRAIN_CONFIG, seed=TRAIN_SEED
    )


def run_search(mm: MindMappings, name: str, seed: int, iterations: int,
               restarts: int) -> dict:
    problem = problem_by_name(name)
    result = mm.searcher(problem, restarts=restarts).run(iterations, seed=seed)
    best = result.best_mapping
    return {
        "problem": name,
        "seed": seed,
        "iterations": iterations,
        "restarts": restarts,
        "best_mapping": best.to_dict(),
        "edp": CostModel(mm.accelerator).evaluate_edp(best, problem),
        "objective_trace": [float(v) for v in result.objective_values],
    }


def build_golden() -> dict:
    mm = train_surrogate()
    return {
        "accelerator_fingerprint": mm.accelerator.fingerprint(),
        "searches": [run_search(mm, *spec) for spec in SEARCHES],
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
