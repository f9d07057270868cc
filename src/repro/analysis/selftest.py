"""Built-in fixture suite: every rule must fire on its bad snippet and
stay silent on the good twin.

``python -m repro.analysis --selftest`` runs this; CI uses it as a
canary that the linter itself still works before trusting a clean run
on ``src``.  The fixtures double as the corpus for
``tests/test_analysis_rules.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.runner import analyze
from repro.analysis.suppress import RPR900

#: rule id -> (bad source that must fire, good source that must not).
FIXTURES: Dict[str, Tuple[str, str]] = {
    "RPR001": (
        '''\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def snapshot(self):
        with self._lock:
            return self._total

    def bump(self):
        self._total += 1
''',
        '''\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def snapshot(self):
        with self._lock:
            return self._total

    def bump(self):
        with self._lock:
            self._total += 1
''',
    ),
    "RPR002": (
        '''\
import threading


class Sender:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self._sock = sock
        self._pending = []

    def flush(self, payload):
        with self._lock:
            self._sock.sendall(payload)
''',
        '''\
import threading


class Sender:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self._sock = sock
        self._pending = []

    def flush(self, payload):
        with self._lock:
            self._pending.append(payload)
        self._sock.sendall(payload)
''',
    ),
    "RPR003": (
        '''\
import threading


class Transfer:
    def __init__(self):
        self._accounts = threading.Lock()
        self._audit = threading.Lock()

    def debit(self):
        with self._accounts:
            with self._audit:
                pass

    def credit(self):
        with self._audit:
            with self._accounts:
                pass
''',
        '''\
import threading


class Transfer:
    def __init__(self):
        self._accounts = threading.Lock()
        self._audit = threading.Lock()

    def debit(self):
        with self._accounts:
            with self._audit:
                pass

    def credit(self):
        with self._accounts:
            with self._audit:
                pass
''',
    ),
    "RPR004": (
        '''\
import threading


class Poller:
    def start(self):
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self):
        pass
''',
        '''\
import threading


class Poller:
    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self):
        self._thread.join()

    def _run(self):
        pass
''',
    ),
    "RPR005": (
        '''\
import threading

_REGISTRY_LOCK = threading.Lock()


def register(name):
    _REGISTRY_LOCK.acquire()
    try:
        return name
    finally:
        _REGISTRY_LOCK.release()
''',
        '''\
import threading

_REGISTRY_LOCK = threading.Lock()


def register(name):
    with _REGISTRY_LOCK:
        return name
''',
    ),
    "RPR101": (
        '''\
import numpy as np


def sample(n):
    rng = np.random.default_rng()
    return rng.random(n)
''',
        '''\
import numpy as np


def sample(n, seed):
    rng = np.random.default_rng(seed)
    return rng.random(n)
''',
    ),
    "RPR102": (
        '''\
import time


def deadline(budget_s):
    return time.time() + budget_s
''',
        '''\
import time


def deadline(budget_s):
    return time.monotonic() + budget_s
''',
    ),
    "RPR103": (
        '''\
def snapshot(names):
    return [name.upper() for name in set(names)]
''',
        '''\
def snapshot(names):
    return [name.upper() for name in sorted(set(names))]
''',
    ),
    "RPR104": (
        '''\
def scan(root):
    return [path.name for path in root.iterdir()]
''',
        '''\
def scan(root):
    return [path.name for path in sorted(root.iterdir())]
''',
    ),
    "RPR105": (
        '''\
import time


class Timer:
    def __init__(self):
        self._started = time.monotonic()

    def elapsed(self):
        return time.perf_counter() - self._started
''',
        '''\
class Timer:
    def __init__(self, clock):
        self._clock = clock
        self._started = clock()

    def elapsed(self):
        return self._clock() - self._started
''',
    ),
    "RPR106": (
        '''\
from repro.obs import events as obs_events


def on_shard_death(shard_id):
    obs_events.emit("shard_died", shard=shard_id)
''',
        '''\
from repro.obs import events as obs_events


def on_shard_death(shard_id):
    obs_events.emit("shard_down", shard=shard_id)


def emit(problem, bound):
    # A local callable named emit is not the event emitter.
    return (problem, bound)


def notify(problem):
    emit(problem, 1.0)
''',
    ),
    "RPR201": (
        '''\
__all__ = ["frobnicate"]


def helper():
    return 1
''',
        '''\
__all__ = ["helper"]


def helper():
    return 1
''',
    ),
    # The bad fixture needs a literal pragma with no justification; it is
    # assembled via replace() so this file's own source never contains a
    # malformed pragma for the scanner to trip over.
    RPR900: (
        '''\
import time


def deadline(budget_s):
    return time.monotonic() + budget_s  # PRAGMA
'''.replace("# PRAGMA", "# repro: " + "ignore[RPR102]"),
        '''\
import time


def deadline(budget_s):
    # wall-clock-free; nothing to suppress here
    return time.monotonic() + budget_s
''',
    ),
}


#: Path-scoped rules only fire under particular directories; their
#: fixtures must be written at an in-scope relative path.
FIXTURE_PATHS: Dict[str, str] = {
    "RPR105": "repro/obs/case.py",
}


def _run_case(rule_id: str, source: str, workdir: Path) -> List[str]:
    case = workdir / FIXTURE_PATHS.get(rule_id, "case.py")
    case.parent.mkdir(parents=True, exist_ok=True)
    case.write_text(source, encoding="utf-8")
    result = analyze([case], select=[rule_id], root=workdir)
    return [f.rule_id for f in result.findings]


def run_selftest(stream=None) -> int:
    """Exercise every fixture pair; returns a process exit code."""
    stream = stream if stream is not None else sys.stdout
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-analysis-selftest-") as tmp:
        workdir = Path(tmp)
        for rule_id, (bad, good) in sorted(FIXTURES.items()):
            fired = _run_case(rule_id, bad, workdir)
            silent = _run_case(rule_id, good, workdir)
            problems = []
            if rule_id not in fired:
                problems.append(f"did not fire on bad fixture (got {fired})")
            if rule_id in silent:
                problems.append("fired on good fixture")
            if problems:
                failures += 1
                print(f"FAIL {rule_id}: {'; '.join(problems)}", file=stream)
            else:
                print(f"ok   {rule_id}", file=stream)
    if failures:
        print(f"selftest: {failures} rule(s) broken", file=stream)
        return 1
    print(f"selftest: {len(FIXTURES)} rule(s) verified", file=stream)
    return 0


__all__ = ["FIXTURES", "FIXTURE_PATHS", "run_selftest"]
