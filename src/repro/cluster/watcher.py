"""Fleet surrogate propagation: poll the shared registry, hot-swap winners.

The learn registry was built for exactly this topology: many processes
share one directory, publishes are exclusive ``os.link`` operations that
can never clobber each other, and version numbers are monotonic across
processes.  :class:`RegistryWatcher` is the read side — each shard runs
one against the shared directory, and a surrogate gate-passed *on any
shard* (published by that shard's :class:`~repro.learn.OnlineLearner`)
appears on every other shard within one poll interval, installed through
the same :meth:`MappingEngine.install_pipeline` hot-swap the local
learner uses.  No restart, no coordination service, no leader: the
filesystem is the bus and "highest live version wins" is the protocol.

Adoption is idempotent and race-free by construction:

* the engine records the registry version it is serving
  (:meth:`MappingEngine.surrogate_versions`), so a version the local
  learner already installed — or the watcher adopted last poll — is
  skipped, even though publisher and watcher share no state;
* artifacts embed the accelerator fingerprint and the registry refuses a
  mismatch, so a directory accidentally shared across heterogeneous
  fleets degrades to counted ``errors``, never a wrong-hardware swap;
* in-flight searches keep the surrogate they resolved at prepare time
  (the engine's existing hot-swap contract), so adoption never changes a
  response mid-search.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, List, Optional

from repro.engine.engine import MappingEngine
from repro.learn.registry import ModelRegistry
from repro.obs.trace import Periodic
from repro.serve.metrics import Counter


class RegistryWatcher(Periodic):
    """Polls one shared :class:`ModelRegistry`; hot-swaps newer versions.

    :meth:`start` runs :meth:`poll` on a daemon thread every
    ``interval_s``; a failed poll is counted in ``errors`` and warned
    about, and the loop goes on.
    """

    thread_name = "registry-watcher"

    def __init__(
        self,
        engine: MappingEngine,
        registry: ModelRegistry,
        interval_s: float = 0.5,
        algorithms: Optional[List[str]] = None,
    ) -> None:
        """``algorithms`` restricts adoption to a fixed set; by default the
        watcher adopts every algorithm the registry publishes (lazy shards
        pick up surrogates for traffic they haven't even seen yet)."""
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.engine = engine
        self.registry = registry
        self.interval_s = interval_s
        self.algorithms = None if algorithms is None else list(algorithms)
        self.polls = Counter()
        self.adopted = Counter()
        self.errors = Counter()
        #: algorithm -> last version this watcher installed (observability;
        #: the dedup source of truth is the engine's own version record).
        self._adopted_versions: Dict[str, int] = {}
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------

    def poll(self) -> List[str]:
        """One synchronous pass; returns the algorithms adopted this turn.

        Re-indexes the directory (other processes publish without telling
        us), then for each algorithm whose latest live version is newer
        than what this engine serves, loads the artifact (fingerprint
        verified) and hot-swaps it in.
        """
        self.polls.inc()
        self.registry.refresh()
        installed = {
            algorithm: info.get("version")
            for algorithm, info in self.engine.surrogate_versions().items()
        }
        adopted: List[str] = []
        for algorithm in self.registry.algorithms():
            if self.algorithms is not None and algorithm not in self.algorithms:
                continue
            latest = self.registry.latest_version(algorithm)
            if latest is None:
                continue
            current = installed.get(algorithm)
            if current is not None and current >= latest:
                continue
            try:
                pipeline, version = self.registry.load(
                    algorithm, self.engine.accelerator, latest
                )
                self.engine.install_pipeline(
                    algorithm,
                    pipeline,
                    source=f"registry:v{version}",
                    version=version,
                )
            except Exception as error:  # noqa: BLE001 — watching never crashes
                # Wrong-fingerprint artifacts, a version rolled back
                # between refresh and load, unreadable bytes: count and
                # keep serving the incumbent.
                self.errors.inc()
                warnings.warn(
                    f"registry watcher failed to adopt {algorithm!r} "
                    f"v{latest} ({error.__class__.__name__}: {error})"
                )
                continue
            with self._state_lock:
                self._adopted_versions[algorithm] = version
            self.adopted.inc()
            adopted.append(algorithm)
        return adopted

    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.poll()

    def _on_error(self, error: Exception) -> None:
        self.errors.inc()
        warnings.warn(
            f"registry watcher poll failed "
            f"({error.__class__.__name__}: {error})"
        )

    def __enter__(self) -> "RegistryWatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Counters + adopted versions, for the serving metrics snapshot."""
        with self._state_lock:
            adopted_versions = dict(self._adopted_versions)
        return {
            "polls": self.polls.value,
            "adopted": self.adopted.value,
            "errors": self.errors.value,
            "adopted_versions": adopted_versions,
            "registry_root": str(self.registry.root),
        }


__all__ = ["RegistryWatcher"]
