"""Bitwise golden for the batched analytical kernel (tier 1).

``tests/golden/batch_kernel_golden.json`` freezes sixteen seeded mappings
per Table 1 and transformer problem on both accelerator configurations:
each row's EDP as ``float.hex`` and a sha256 digest of the stacked
``accesses`` / ``noc_words`` / ``cycles`` / ``utilization`` /
``spatial_pes`` bytes.  :func:`~repro.costmodel.batch.evaluate_batch` must
reproduce the file exactly — no tolerance — and every row priced alone
(``N = 1``, the shape of an annealing round below the cohort's prewarm
floor) must equal its row in the batch.

To regenerate after an intentional model change:
``PYTHONPATH=src python tests/golden/generate_batch_kernel_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.costmodel.batch import evaluate_batch

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "batch_kernel_golden.json").read_text())


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_batch_kernel_golden",
        GOLDEN_DIR / "generate_batch_kernel_golden.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()

CASES = [
    (accel_name, problem)
    for accel_name in GENERATOR.ACCELERATORS
    for problem in GENERATOR.PROBLEMS
]
IDS = [f"{accel_name}/{problem.name}" for accel_name, problem in CASES]
_ACCELERATORS = {name: make() for name, make in GENERATOR.ACCELERATORS.items()}


def test_fixture_covers_every_case_and_accelerator():
    assert GOLDEN["seed"] == GENERATOR.SEED
    assert GOLDEN["rows"] == GENERATOR.ROWS
    assert sorted(GOLDEN["entries"]) == sorted(IDS)
    assert GOLDEN["accelerator_fingerprints"] == {
        name: accel.fingerprint() for name, accel in _ACCELERATORS.items()
    }


@pytest.fixture(scope="module")
def priced():
    """Per case: the sampled mappings and their one-call batch stats."""
    out = {}
    for (accel_name, problem), case_id in zip(CASES, IDS):
        accelerator = _ACCELERATORS[accel_name]
        mappings = GENERATOR.sample_rows(problem, accelerator)
        out[case_id] = (
            mappings, evaluate_batch(accelerator, mappings, problem)
        )
    return out


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_batch_reproduces_golden_bitwise(priced, case):
    accel_name, problem = case
    frozen = GOLDEN["entries"][f"{accel_name}/{problem.name}"]
    mappings, stats = priced[f"{accel_name}/{problem.name}"]
    assert GENERATOR.mappings_digest(mappings) == frozen["mappings_sha256"], (
        "the map space no longer samples the frozen mappings; this is a "
        "map-space change, not kernel drift"
    )
    assert [float(v).hex() for v in stats.edp] == frozen["edp_hex"]
    assert GENERATOR.stats_digest(stats) == frozen["stats_sha256"]


def _row_bytes(stats, row):
    return [
        np.ascontiguousarray(np.asarray(getattr(stats, field))[row]).tobytes()
        for field in GENERATOR.DIGEST_FIELDS
    ]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_each_row_priced_alone_equals_its_batch_row(priced, case):
    accel_name, problem = case
    accelerator = _ACCELERATORS[accel_name]
    frozen = GOLDEN["entries"][f"{accel_name}/{problem.name}"]
    mappings, stats = priced[f"{accel_name}/{problem.name}"]
    for row, mapping in enumerate(mappings):
        alone = evaluate_batch(accelerator, [mapping], problem)
        assert len(alone) == 1
        assert float(alone.edp[0]).hex() == frozen["edp_hex"][row]
        assert _row_bytes(alone, 0) == _row_bytes(stats, row)
