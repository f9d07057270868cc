"""Golden regression fixture for the oracle-driven searchers (tier 1).

``tests/golden/oracle_search_golden.json`` freezes seeded ``random``,
``annealing`` and ``genetic`` requests served by ``MappingEngine.map`` on
three CNN layers and two BERT GEMMs: the best mapping, its true EDP, and
every objective value in the trace.  Every sample, neighbour, crossover
and mutation goes through the map space, so a rewrite of it that changes a
single mapping or a single random draw changes the trace.

To regenerate after an intentional change:
``PYTHONPATH=src python tests/golden/generate_oracle_search_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mapspace.mapping import Mapping

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "oracle_search_golden.json").read_text())


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_oracle_search_golden",
        GOLDEN_DIR / "generate_oracle_search_golden.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


@pytest.fixture(scope="module")
def engine():
    return GENERATOR.make_engine()


def test_fixture_matches_generator_and_accelerator(engine):
    assert GOLDEN["accelerator_fingerprint"] == engine.accelerator.fingerprint()
    frozen = [
        (r["problem"], r["searcher"], r["iterations"], r["seed"])
        for r in GOLDEN["runs"]
    ]
    assert frozen == GENERATOR.requests()


@pytest.mark.parametrize(
    "frozen",
    GOLDEN["runs"],
    ids=[f"{r['problem']}-{r['searcher']}" for r in GOLDEN["runs"]],
)
def test_request_reproduces_fixture(engine, frozen):
    fresh = GENERATOR.run_request(
        engine,
        frozen["problem"],
        frozen["searcher"],
        frozen["iterations"],
        frozen["seed"],
    )
    assert Mapping.from_dict(fresh["best_mapping"]) == Mapping.from_dict(
        frozen["best_mapping"]
    )
    np.testing.assert_allclose(fresh["edp"], frozen["edp"], rtol=1e-12)
    assert len(fresh["objective_trace"]) == len(frozen["objective_trace"])
    np.testing.assert_allclose(
        fresh["objective_trace"], frozen["objective_trace"], rtol=1e-12
    )
