"""The metric catalog: units and directions from ``BENCHMARK.json`` at the
repository root, definitions and predicted moves from ``catalog.json``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
CATALOG = HERE / "catalog.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def load() -> Dict[str, Dict[str, dict]]:
    """Each metric's definition and, per layer, the metrics it should move."""
    return json.loads(CATALOG.read_text())


def units() -> Dict[str, str]:
    """Metric name -> unit, end-to-end and per-layer together."""
    bench = json.loads(BENCHMARK.read_text())
    return {
        metric["name"]: metric["unit"]
        for section in ("end_to_end", "per_layer")
        for metric in bench[section]
    }
