"""Regenerate the frozen oracle-driven search fixture.

Run from the repository root after an *intentional* change to what the
black-box searchers compute (and only then — the fixture exists to catch
unintentional drift, e.g. from a rewrite of the map space's sampling,
membership, projection or neighbourhood moves that is meant to leave every
mapping and every random draw unchanged):

    PYTHONPATH=src python tests/golden/generate_oracle_search_golden.py

Seeded ``random``, ``annealing`` and ``genetic`` requests run through
``MappingEngine.map`` on three Table 1 CNN layers and two BERT GEMMs.  For
each, the best mapping, its true EDP and the complete objective trace are
frozen to ``oracle_search_golden.json``;
``tests/test_oracle_search_golden.py`` replays the requests and compares.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.costmodel.accelerator import default_accelerator
from repro.engine import MappingEngine, MappingRequest
from repro.workloads import problem_by_name

GOLDEN_PATH = Path(__file__).parent / "oracle_search_golden.json"

#: Problems every searcher runs on: three CNN layers, two BERT GEMMs.
PROBLEMS = (
    "ResNet_Conv4",
    "Inception_Conv2",
    "AlexNet_Conv2",
    "BERT_QKV",
    "BERT_FFN2",
)

#: (searcher, iterations) per frozen request; the seed is the problem index.
SEARCHERS = (
    ("random", 64),
    ("annealing", 120),
    ("genetic", 120),
)


def make_engine() -> MappingEngine:
    return MappingEngine(default_accelerator())


def requests():
    """Every frozen ``(problem, searcher, iterations, seed)``, in order."""
    return [
        (name, searcher, iterations, seed)
        for seed, name in enumerate(PROBLEMS)
        for searcher, iterations in SEARCHERS
    ]


def run_request(engine: MappingEngine, name: str, searcher: str,
                iterations: int, seed: int) -> dict:
    response = engine.map(MappingRequest(
        problem_by_name(name), searcher=searcher, iterations=iterations,
        seed=seed,
    ))
    return {
        "problem": name,
        "searcher": searcher,
        "iterations": iterations,
        "seed": seed,
        "best_mapping": response.mapping.to_dict(),
        "edp": response.stats.edp,
        "objective_trace": [float(v) for v in response.result.objective_values],
    }


def build_golden() -> dict:
    engine = make_engine()
    return {
        "accelerator_fingerprint": engine.accelerator.fingerprint(),
        "runs": [run_request(engine, *spec) for spec in requests()],
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
