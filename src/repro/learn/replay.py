"""Traffic-driven replay buffer: served true costs become training pairs.

Every :class:`~repro.costmodel.cache.CachedOracle` miss and every finalized
search already paid for one true analytical evaluation; this module keeps
those labels instead of throwing them away.  A :class:`ReplayBuffer` holds
one algorithm's samples as *whitened* (encoding, target) pairs — exactly
the coordinates the surrogate trains in — split deterministically into a
training store and a held-out store the validation gate scores against.

Two properties matter for serving:

* **Hot-path neutrality** — the buffer never runs on the request path.
  The tap enqueues raw observations (see
  :class:`repro.learn.lifecycle.OnlineLearner`); :meth:`ingest` does the
  encoding, whitening, and target conversion on the learner's background
  thread.
* **Per-problem reservoir sampling** — each problem shape owns a bounded
  reservoir (Vitter's Algorithm R), so a hot shape serving thousands of
  requests per minute cannot crowd a rare shape's samples out of the
  buffer; minibatches then draw problems uniformly, not traffic-weighted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.surrogate import Surrogate
from repro.costmodel.accelerator import Accelerator
from repro.costmodel.batch import BatchCostStats
from repro.costmodel.cache import problem_key
from repro.costmodel.lower_bound import AlgorithmicMinimum, algorithmic_minimum
from repro.costmodel.stats import CostStats
from repro.mapspace.mapping import Mapping
from repro.utils.rng import SeedLike, ensure_rng
from repro.workloads.problem import Problem


@dataclass(frozen=True)
class ReplayConfig:
    """Bounds and split policy for one algorithm's replay store.

    ``holdout_every=k`` routes every ``k``-th observed sample of a problem
    to the held-out reservoir (never trained on), so gate validation data
    is disjoint from training data by construction.
    """

    capacity_per_problem: int = 512
    holdout_capacity_per_problem: int = 128
    holdout_every: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity_per_problem < 1:
            raise ValueError(
                f"capacity_per_problem must be >= 1, got {self.capacity_per_problem}"
            )
        if self.holdout_capacity_per_problem < 1:
            raise ValueError(
                f"holdout_capacity_per_problem must be >= 1, got "
                f"{self.holdout_capacity_per_problem}"
            )
        if self.holdout_every < 2:
            raise ValueError(
                f"holdout_every must be >= 2 (1 would starve training), got "
                f"{self.holdout_every}"
            )


class _Reservoir:
    """Fixed-capacity uniform sample of a row stream (Algorithm R)."""

    def __init__(self, capacity: int, width_x: int, width_y: int) -> None:
        self.capacity = capacity
        self.x = np.empty((capacity, width_x), dtype=np.float64)
        self.y = np.empty((capacity, width_y), dtype=np.float64)
        self.size = 0
        self.seen = 0

    def add(self, x_row: np.ndarray, y_row: np.ndarray, rng: np.random.Generator) -> None:
        self.seen += 1
        if self.size < self.capacity:
            index = self.size
            self.size += 1
        else:
            index = int(rng.integers(0, self.seen))
            if index >= self.capacity:
                return
        self.x[index] = x_row
        self.y[index] = y_row


class ReplayBuffer:
    """Bounded, thread-safe store of one algorithm's (x, y) training pairs.

    Coordinates come from the *frozen Phase-1* surrogate: its encoder maps
    mappings to vectors, its whiteners standardize inputs and targets, and
    its codec builds targets from true cost statistics (normalized by each
    problem's algorithmic-minimum lower bound).  Fine-tuned clones share
    those objects, so every surrogate version reads this buffer natively.
    """

    def __init__(
        self,
        surrogate: Surrogate,
        accelerator: Accelerator,
        config: Optional[ReplayConfig] = None,
    ) -> None:
        self.algorithm = surrogate.algorithm
        self.encoder = surrogate.encoder
        self.codec = surrogate.codec
        self.input_whitener = surrogate.input_whitener
        self.target_whitener = surrogate.target_whitener
        self.accelerator = accelerator
        self.config = config or ReplayConfig()
        self._rng = ensure_rng(self.config.seed)
        self._lock = threading.Lock()
        self._train: Dict[Hashable, _Reservoir] = {}
        self._hold: Dict[Hashable, _Reservoir] = {}
        self._counts: Dict[Hashable, int] = {}
        self._names: Dict[Hashable, str] = {}
        self._bounds: Dict[Hashable, AlgorithmicMinimum] = {}
        self._ingested = 0
        self._skipped = 0

    # ------------------------------------------------------------------
    # Ingestion (background thread)
    # ------------------------------------------------------------------

    def _lower_bound(self, key: Hashable, problem: Problem) -> AlgorithmicMinimum:
        bound = self._bounds.get(key)
        if bound is None:
            bound = algorithmic_minimum(problem, self.accelerator)
            with self._lock:
                self._bounds[key] = bound
        return bound

    def _raw_targets(
        self, bound: AlgorithmicMinimum, stats: object
    ) -> Optional[np.ndarray]:
        """Codec target rows from the tap's cost statistics (``None`` for an
        observation without them)."""
        if isinstance(stats, BatchCostStats):
            return self.codec.from_stats_batch(stats, bound, self.encoder.tensors)
        if isinstance(stats, Sequence) and len(stats) and isinstance(stats[0], CostStats):
            return np.stack(
                [self.codec.from_stats(s, bound, self.encoder.tensors) for s in stats]
            )
        return None

    def ingest(
        self,
        problem: Problem,
        mappings: Sequence[Mapping],
        edps: Sequence[float],
        stats: object = None,
    ) -> int:
        """Convert one tapped observation into whitened pairs and absorb it.

        Returns the number of samples absorbed (0 when the observation
        carried no cost statistics — counted as skipped, in either codec
        mode).
        Runs encoding and whitening here, on the caller's (background)
        thread, never on the serving path.
        """
        if problem.algorithm != self.algorithm:
            raise ValueError(
                f"buffer holds algorithm {self.algorithm!r} samples, got a "
                f"problem of algorithm {problem.algorithm!r}"
            )
        if not len(mappings):
            return 0
        key = problem_key(problem)
        bound = self._lower_bound(key, problem)
        targets = self._raw_targets(bound, stats)
        if targets is None:
            with self._lock:
                self._skipped += len(mappings)
            return 0
        x = self.input_whitener.transform(self.encoder.encode_batch(mappings, problem))
        y = self.target_whitener.transform(targets)
        with self._lock:
            train = self._train.get(key)
            if train is None:
                train = _Reservoir(
                    self.config.capacity_per_problem, x.shape[1], y.shape[1]
                )
                self._train[key] = train
                self._hold[key] = _Reservoir(
                    self.config.holdout_capacity_per_problem, x.shape[1], y.shape[1]
                )
                self._counts[key] = 0
                self._names[key] = problem.name
            hold = self._hold[key]
            for row in range(len(x)):
                count = self._counts[key]
                self._counts[key] = count + 1
                target = hold if count % self.config.holdout_every == 0 else train
                target.add(x[row], y[row], self._rng)
            self._ingested += len(x)
        return len(x)

    # ------------------------------------------------------------------
    # Consumption (trainer / gate)
    # ------------------------------------------------------------------

    def sample(
        self, batch_size: int, rng: SeedLike = None
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """A problem-balanced training minibatch, or ``None`` when empty.

        Draws the problem uniformly, then a row uniformly within the
        problem's reservoir — so minibatch composition reflects shape
        diversity, not traffic volume.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        generator = self._rng if rng is None else ensure_rng(rng)
        with self._lock:
            keys = [key for key, res in self._train.items() if res.size > 0]
            if not keys:
                return None
            picks = generator.integers(0, len(keys), size=batch_size)
            xs = np.empty((batch_size, self.encoder.length), dtype=np.float64)
            ys = np.empty((batch_size, self.codec.width), dtype=np.float64)
            for out, key_index in enumerate(picks):
                reservoir = self._train[keys[key_index]]
                row = int(generator.integers(0, reservoir.size))
                xs[out] = reservoir.x[row]
                ys[out] = reservoir.y[row]
        return xs, ys

    def holdout_truth(self) -> Tuple[np.ndarray, np.ndarray]:
        """All held-out samples as (whitened inputs, true log2-norm-EDP).

        The truth vector is recovered from the stored raw targets via the
        codec, i.e. it is the analytical oracle's answer in the scalar
        objective scale both surrogate generations predict — what the
        validation gate ranks against.  Returns empty arrays when no
        held-out samples exist yet.
        """
        with self._lock:
            stores = [res for res in self._hold.values() if res.size > 0]
            if not stores:
                return (
                    np.empty((0, self.encoder.length), dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                )
            x = np.concatenate([res.x[: res.size] for res in stores])
            y = np.concatenate([res.y[: res.size] for res in stores])
        truth = self.codec.log2_norm_edp_batch(self.target_whitener.inverse(y))
        return x, truth

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Training rows currently held (across all problems)."""
        with self._lock:
            return sum(res.size for res in self._train.values())

    @property
    def holdout_depth(self) -> int:
        with self._lock:
            return sum(res.size for res in self._hold.values())

    def snapshot(self) -> Dict[str, object]:
        """Metrics view: depths, per-problem counts, ingest counters."""
        with self._lock:
            return {
                "depth": sum(res.size for res in self._train.values()),
                "holdout_depth": sum(res.size for res in self._hold.values()),
                "ingested": self._ingested,
                "skipped": self._skipped,
                "problems": {
                    self._names[key]: {
                        "train": self._train[key].size,
                        "holdout": self._hold[key].size,
                        "seen": self._counts[key],
                    }
                    for key in self._train
                },
            }


__all__ = ["ReplayBuffer", "ReplayConfig"]
