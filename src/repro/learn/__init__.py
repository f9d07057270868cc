"""Online surrogate lifecycle: traffic-driven replay, incremental
training, validated hot-swap.

Phase 1 trains a surrogate once, offline; this package keeps it learning
*online* from the true analytical costs the serving layer computes anyway
(every :class:`~repro.costmodel.cache.CachedOracle` miss, every finalized
search winner).  All learning runs in the background — the request path
only ever enqueues an observation.

* :mod:`repro.learn.replay` — bounded per-problem reservoir buffer of
  whitened (encoding, target) pairs, with a deterministic held-out split,
* :mod:`repro.learn.trainer` — low-LR fine-tuning of a cloned surrogate
  on replay minibatches,
* :mod:`repro.learn.gate` — held-out Spearman/MSE validation that refuses
  regressive swaps,
* :mod:`repro.learn.registry` — versioned, atomic, rollback-able on-disk
  model artifacts,
* :mod:`repro.learn.lifecycle` — the :class:`OnlineLearner` loop wiring
  tap → replay → train → gate → registry → engine hot-swap.

``tests/test_learn_lifecycle.py`` drives a cold-surrogate → traffic →
improved-surrogate loop end to end.
"""

from repro.learn.gate import GateConfig, GateReport, validate_swap
from repro.learn.lifecycle import LearnConfig, OnlineLearner
from repro.learn.registry import ModelRegistry
from repro.learn.replay import ReplayBuffer, ReplayConfig
from repro.learn.trainer import OnlineTrainer, OnlineTrainerConfig, TrainRound

__all__ = [
    "GateConfig",
    "GateReport",
    "LearnConfig",
    "ModelRegistry",
    "OnlineLearner",
    "OnlineTrainer",
    "OnlineTrainerConfig",
    "ReplayBuffer",
    "ReplayConfig",
    "TrainRound",
    "validate_swap",
]
