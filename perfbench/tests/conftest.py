"""Put the program's ``src`` and the benchmark's modules on the path.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
