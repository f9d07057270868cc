"""Multi-process sharded serving: N cores for a GIL-bound serving stack.

The single-process system (``repro.serve`` + ``repro.learn``) tops out at
one core: search, surrogate inference, and training all share the GIL.
This package scales it *out* instead of up, without touching the engine:

* :class:`~repro.cluster.router.ClusterRouter` — spawns N
  :func:`~repro.cluster.shard.run_shard` worker processes, routes each
  request to the shard that owns its problem
  (:class:`~repro.cluster.hashing.HashRing` over
  :func:`~repro.cluster.hashing.problem_fingerprint`), health-checks and
  respawns dead shards, fails in-flight work over along the ring, and
  aggregates per-shard metrics into one fleet view.  It exposes the
  ``MappingServer`` surface, so the existing HTTP gateway fronts a
  cluster unchanged.
* :mod:`~repro.cluster.rpc` — the length-prefixed JSON socket protocol
  between router and shards, riding the public ``serve.codec`` wire
  format.
* :class:`~repro.cluster.watcher.RegistryWatcher` — the fleet learning
  loop: every shard polls the shared model registry and hot-swaps
  surrogates gate-passed by *any* shard's online learner, so one shard's
  training improves the whole fleet without restarts.

``python -m repro.cluster --shards N`` serves HTTP in front of a fleet;
``tests/test_cluster.py`` runs real shard processes end to end.
"""

from repro.cluster.hashing import HashRing, problem_fingerprint, stable_digest
from repro.cluster.router import (
    ClusterConfig,
    ClusterRouter,
    NoLiveShards,
    start_cluster,
)
from repro.cluster.shard import ShardService, run_shard
from repro.cluster.watcher import RegistryWatcher

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "HashRing",
    "NoLiveShards",
    "RegistryWatcher",
    "ShardService",
    "problem_fingerprint",
    "run_shard",
    "stable_digest",
    "start_cluster",
]
