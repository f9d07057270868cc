"""Regenerate the frozen batch-kernel bitwise fixture.

Run from the repository root after an *intentional* cost-model semantics
change (and only then — the fixture exists to catch unintentional drift in
the vectorized kernel, e.g. from a lowering rewrite):

    PYTHONPATH=src python tests/golden/generate_batch_kernel_golden.py

For every Table 1 and transformer problem on both the paper's 256-PE
accelerator and the 16-PE small configuration, sixteen mappings are drawn
with one seeded :meth:`~repro.mapspace.MapSpace.sample_many` stream and
priced in one :func:`~repro.costmodel.batch.evaluate_batch` call.  The
fixture keeps, per (accelerator, problem):

* ``mappings_sha256`` — a digest of the sampled mappings, so a map-space
  change is reported as such rather than as kernel drift;
* ``edp_hex`` — each row's EDP as ``float.hex`` (exact, no tolerance);
* ``stats_sha256`` — a digest of the raw bytes of ``accesses``,
  ``noc_words``, ``cycles``, ``utilization`` and ``spatial_pes``.

``tests/test_batch_kernel_golden.py`` checks that ``evaluate_batch``
reproduces every value bit for bit, and that each row priced alone
(``N = 1``) equals its row in the batch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.costmodel.accelerator import default_accelerator, small_accelerator
from repro.costmodel.batch import evaluate_batch
from repro.mapspace import MapSpace
from repro.mapspace.mapping import Mapping
from repro.workloads import TABLE1_PROBLEMS, TRANSFORMER_PROBLEMS

#: Sample stream seed and rows per (accelerator, problem).  Arbitrary but
#: frozen: changing either invalidates the fixture for no reason.
SEED = 2021
ROWS = 16

GOLDEN_PATH = Path(__file__).parent / "batch_kernel_golden.json"

ACCELERATORS = {"paper-256pe": default_accelerator, "small-16pe": small_accelerator}

PROBLEMS = tuple(TABLE1_PROBLEMS) + tuple(TRANSFORMER_PROBLEMS)

#: ``BatchCostStats`` arrays folded into ``stats_sha256``, in digest order.
DIGEST_FIELDS = ("accesses", "noc_words", "cycles", "utilization", "spatial_pes")


def mappings_digest(mappings: Sequence[Mapping]) -> str:
    payload = json.dumps([m.to_dict() for m in mappings], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stats_digest(stats) -> str:
    """sha256 over each digest field's shape and little-endian bytes."""
    digest = hashlib.sha256()
    for field in DIGEST_FIELDS:
        array = np.asarray(getattr(stats, field))
        dtype = "<i8" if array.dtype.kind in "iu" else "<f8"
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def sample_rows(problem, accelerator) -> List[Mapping]:
    return MapSpace(problem, accelerator).sample_many(ROWS, seed=SEED)


def build_golden() -> dict:
    entries: Dict[str, dict] = {}
    fingerprints: Dict[str, str] = {}
    for accel_name, make in ACCELERATORS.items():
        accelerator = make()
        fingerprints[accel_name] = accelerator.fingerprint()
        for problem in PROBLEMS:
            mappings = sample_rows(problem, accelerator)
            stats = evaluate_batch(accelerator, mappings, problem)
            entries[f"{accel_name}/{problem.name}"] = {
                "mappings_sha256": mappings_digest(mappings),
                "edp_hex": [float(v).hex() for v in stats.edp],
                "stats_sha256": stats_digest(stats),
            }
    return {
        "seed": SEED,
        "rows": ROWS,
        "accelerator_fingerprints": fingerprints,
        "entries": entries,
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
