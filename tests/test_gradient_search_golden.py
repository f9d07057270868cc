"""Golden regression fixture for Phase 2 gradient search (tier 1).

``tests/golden/gradient_search_golden.json`` freezes four seeded
``gradient`` searches over a tiny fixed-seed CNN-layer surrogate: the best
mapping, its true EDP, and every surrogate objective value in the trace.
Decode and projection run once per descent step, so a rewrite of either
that changes a single rounding decision changes the trace.

To regenerate after an intentional change:
``PYTHONPATH=src python tests/golden/generate_gradient_search_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mapspace.mapping import Mapping

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "gradient_search_golden.json").read_text())

#: Trace values are surrogate outputs, so BLAS summation order on another
#: platform may move their last bits; mappings must match exactly.
TRACE_RTOL = 1e-9


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_gradient_search_golden",
        GOLDEN_DIR / "generate_gradient_search_golden.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


@pytest.fixture(scope="module")
def golden_mm():
    return GENERATOR.train_surrogate()


def test_fixture_matches_generator_and_accelerator(golden_mm):
    assert GOLDEN["accelerator_fingerprint"] == golden_mm.accelerator.fingerprint()
    frozen = [
        (s["problem"], s["seed"], s["iterations"], s["restarts"])
        for s in GOLDEN["searches"]
    ]
    assert frozen == list(GENERATOR.SEARCHES)


@pytest.mark.parametrize(
    "frozen", GOLDEN["searches"], ids=[s["problem"] for s in GOLDEN["searches"]]
)
def test_search_reproduces_fixture(golden_mm, frozen):
    fresh = GENERATOR.run_search(
        golden_mm,
        frozen["problem"],
        frozen["seed"],
        frozen["iterations"],
        frozen["restarts"],
    )
    assert Mapping.from_dict(fresh["best_mapping"]) == Mapping.from_dict(
        frozen["best_mapping"]
    )
    np.testing.assert_allclose(fresh["edp"], frozen["edp"], rtol=1e-12)
    assert len(fresh["objective_trace"]) == len(frozen["objective_trace"])
    np.testing.assert_allclose(
        fresh["objective_trace"], frozen["objective_trace"], rtol=TRACE_RTOL
    )
