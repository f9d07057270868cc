"""The online surrogate lifecycle: observe → replay → train → gate → swap.

:class:`OnlineLearner` closes the loop between serving and learning for
one :class:`~repro.engine.MappingEngine`:

1. **Observe** — ``attach()`` installs one tap, the engine oracle's miss
   listener: every true cost the serving path computes anyway, including
   each served winner, which finalize prices through the same oracle.
   The tap does one bounded-deque append and returns — the request path
   gains no model work, no training, no I/O.
2. **Replay** — a background step drains the queue into per-algorithm
   :class:`~repro.learn.replay.ReplayBuffer`\\ s (encoding/whitening
   happens here, off the hot path), reservoir-sampled per problem.
3. **Train** — once an algorithm accumulates enough fresh samples, an
   :class:`~repro.learn.trainer.OnlineTrainer` fine-tunes a *clone* of
   the incumbent at a low learning rate.
4. **Gate** — the candidate must beat the incumbent on the held-out
   slice (:func:`repro.learn.gate.validate_swap`); regressions are
   refused and counted, and the incumbent keeps serving.
5. **Swap** — accepted candidates are published to the
   :class:`~repro.learn.registry.ModelRegistry` (when configured) and
   hot-swapped into the engine via
   :meth:`MappingEngine.install_pipeline`.  The engine's read path is a
   lock-free dict lookup and in-flight searches hold their resolved
   surrogate object, so a search always finishes on the version it
   started with.

Drive the loop explicitly with :meth:`OnlineLearner.step` (tests) or
continuously with :meth:`start`/:meth:`stop` (a daemon thread).
``metrics_snapshot()`` feeds the serving layer's ``snapshot()`` and
``/v1/metrics``.
"""

from __future__ import annotations

import threading
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import MindMappings
from repro.engine.engine import MappingEngine
from repro.learn.gate import GateConfig, GateReport, validate_swap
from repro.learn.registry import ModelRegistry
from repro.learn.replay import ReplayBuffer, ReplayConfig
from repro.learn.trainer import OnlineTrainer, OnlineTrainerConfig
from repro.mapspace.mapping import Mapping
from repro.obs import events as obs_events
from repro.obs.trace import Periodic
from repro.serve.metrics import Counter
from repro.utils.rng import ensure_rng
from repro.workloads.problem import Problem

#: One tapped observation, exactly as captured on the serving path.
_Observation = Tuple[Problem, Tuple[Mapping, ...], Tuple[float, ...], object]


@dataclass
class LearnConfig:
    """Lifecycle knobs; component configs ride along."""

    replay: ReplayConfig = field(default_factory=ReplayConfig)
    trainer: OnlineTrainerConfig = field(default_factory=OnlineTrainerConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    #: Fresh ingested samples an algorithm needs before a train round.
    min_new_samples: int = 64
    #: Bound on the raw observation queue between taps and ingestion;
    #: overflow drops the *oldest* observations (newest traffic wins).
    max_pending: int = 2048
    #: Background thread cadence.
    poll_interval_s: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_new_samples < 1:
            raise ValueError(
                f"min_new_samples must be >= 1, got {self.min_new_samples}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )


class OnlineLearner(Periodic):
    """Owns the replay/train/gate/swap loop for one engine."""

    thread_name = "learn-lifecycle"

    def __init__(
        self,
        engine: MappingEngine,
        config: Optional[LearnConfig] = None,
        registry: Optional[ModelRegistry] = None,
    ) -> None:
        self.engine = engine
        self.config = config or LearnConfig()
        self.registry = registry
        self.trainer = OnlineTrainer(self.config.trainer)
        self._rng = ensure_rng(self.config.seed)
        self._pending: Deque[_Observation] = deque()
        self._pending_lock = threading.Lock()
        self._state_lock = threading.Lock()  # buffers / reports / versions
        self._step_lock = threading.Lock()  # one step() at a time
        self._buffers: Dict[str, ReplayBuffer] = {}
        self._new_samples: Dict[str, int] = {}
        self._versions: Dict[str, int] = {}
        self._reports: Dict[str, GateReport] = {}
        self._last_losses: Dict[str, float] = {}
        self.observed = Counter()
        self.dropped = Counter()
        self.train_rounds = Counter()
        self.swaps = Counter()
        self.rejected_swaps = Counter()
        self._attached = False

    # ------------------------------------------------------------------
    # Tap (serving hot path — enqueue and return)
    # ------------------------------------------------------------------

    def attach(self) -> "OnlineLearner":
        """Install the oracle-miss tap on the engine."""
        if not self._attached:
            self.engine.oracle.set_miss_listener(self._on_oracle_miss)
            self._attached = True
        return self

    def detach(self) -> None:
        """Remove the tap (pending observations are kept)."""
        if self._attached:
            self.engine.oracle.set_miss_listener(None)
            self._attached = False

    def _on_oracle_miss(
        self,
        problem: Problem,
        mappings: Sequence[Mapping],
        edps: Sequence[float],
        stats: object,
    ) -> None:
        count = len(mappings)
        if not count:
            return
        with self._pending_lock:
            self._pending.append((problem, tuple(mappings), tuple(edps), stats))
            while len(self._pending) > self.config.max_pending:
                stale = self._pending.popleft()
                self.dropped.inc(len(stale[1]))
        self.observed.inc(count)

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------

    def _buffer_for(self, algorithm: str) -> ReplayBuffer:
        with self._state_lock:
            buffer = self._buffers.get(algorithm)
        if buffer is not None:
            return buffer
        # First samples for this algorithm: materialize the (possibly
        # cold) Phase-1 surrogate now, on this background thread, so its
        # frozen coordinate systems anchor the buffer.  Serving threads
        # that race this pay nothing extra — pipeline_for trains once.
        surrogate = self.engine.pipeline_for(algorithm).surrogate
        with self._state_lock:
            buffer = self._buffers.get(algorithm)
            if buffer is None:
                buffer = ReplayBuffer(
                    surrogate, self.engine.accelerator, self.config.replay
                )
                self._buffers[algorithm] = buffer
                self._new_samples[algorithm] = 0
        return buffer

    def ingest(self) -> int:
        """Drain the observation queue into the replay buffers.

        Returns the number of samples absorbed.  Runs on the caller's
        thread (the background loop, or a test driving :meth:`step`).
        """
        absorbed = 0
        while True:
            with self._pending_lock:
                if not self._pending:
                    break
                problem, mappings, edps, stats = self._pending.popleft()
            try:
                buffer = self._buffer_for(problem.algorithm)
                count = buffer.ingest(problem, mappings, edps, stats)
            except Exception as error:  # noqa: BLE001 — learning never crashes
                self.dropped.inc(len(mappings))
                warnings.warn(
                    f"replay ingest failed for {problem.name!r} "
                    f"({error.__class__.__name__}: {error}); samples dropped"
                )
                continue
            if count:
                absorbed += count
                with self._state_lock:
                    self._new_samples[problem.algorithm] = (
                        self._new_samples.get(problem.algorithm, 0) + count
                    )
        return absorbed

    def step(self) -> List[GateReport]:
        """One synchronous lifecycle turn: ingest, then train/gate/swap
        every algorithm with enough fresh samples.  Returns the gate
        reports produced this turn (possibly empty)."""
        with self._step_lock:
            self.ingest()
            with self._state_lock:
                due = [
                    algorithm
                    for algorithm, fresh in self._new_samples.items()
                    if fresh >= self.config.min_new_samples
                ]
            return [
                report
                for algorithm in due
                if (report := self._train_and_gate(algorithm)) is not None
            ]

    def _train_and_gate(self, algorithm: str) -> Optional[GateReport]:
        with self._state_lock:
            buffer = self._buffers[algorithm]
        incumbent = self.engine.pipeline_for(algorithm).surrogate
        round_ = self.trainer.fine_tune(incumbent, buffer, seed=self._rng)
        if round_ is None:
            return None
        self.train_rounds.inc()
        with self._state_lock:
            self._new_samples[algorithm] = 0
            self._last_losses[algorithm] = round_.last_loss
        holdout_x, truth = buffer.holdout_truth()
        report = validate_swap(
            round_.candidate,
            incumbent,
            holdout_x,
            truth,
            self.config.gate,
            algorithm=algorithm,
        )
        if report.accepted:
            pipeline = MindMappings(round_.candidate, self.engine.accelerator)
            if self.registry is not None:
                version = self.registry.publish(
                    pipeline,
                    metadata={
                        "gate_spearman": f"{report.candidate_spearman:.6f}",
                        "gate_incumbent_spearman": f"{report.incumbent_spearman:.6f}",
                        "gate_mse": f"{report.candidate_mse:.6f}",
                        "gate_samples": str(report.n_samples),
                    },
                )
            else:
                with self._state_lock:
                    version = self._versions.get(algorithm, 0) + 1
            self.engine.install_pipeline(
                algorithm,
                pipeline,
                source=f"online:v{version}",
                version=version if self.registry is not None else None,
            )
            self.swaps.inc()
            obs_events.emit(
                "swap_published",
                algorithm=algorithm,
                version=version,
                spearman=report.candidate_spearman,
            )
            with self._state_lock:
                self._versions[algorithm] = version
        else:
            self.rejected_swaps.inc()
            obs_events.emit(
                "gate_rejected",
                algorithm=algorithm,
                candidate_spearman=report.candidate_spearman,
                incumbent_spearman=report.incumbent_spearman,
            )
        with self._state_lock:
            self._reports[algorithm] = report
        return report

    def rollback(self, algorithm: str) -> int:
        """Registry rollback + immediate engine swap to the prior version."""
        if self.registry is None:
            raise RuntimeError("rollback requires a ModelRegistry")
        version = self.registry.rollback(algorithm)
        pipeline, _ = self.registry.load(
            algorithm, self.engine.accelerator, version
        )
        self.engine.install_pipeline(
            algorithm,
            pipeline,
            source=f"online:v{version}(rollback)",
            version=version,
        )
        with self._state_lock:
            self._versions[algorithm] = version
        return version

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    @property
    def interval_s(self) -> float:
        return self.config.poll_interval_s

    def start(self) -> "OnlineLearner":
        """Attach the tap and run :meth:`step` on a daemon thread every
        ``poll_interval_s`` (a failed step warns; the loop goes on)."""
        if self._thread is None:
            self.attach()
        return super().start()

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the background thread and detach the tap."""
        super().stop(timeout)
        self.detach()

    def _tick(self) -> None:
        self.step()

    def _on_error(self, error: Exception) -> None:
        warnings.warn(
            f"online learner step failed "
            f"({error.__class__.__name__}: {error})"
        )

    def __enter__(self) -> "OnlineLearner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def replay_buffer(self, algorithm: str) -> Optional[ReplayBuffer]:
        """The replay buffer for ``algorithm``, or ``None`` before any
        sample of that algorithm was ingested."""
        with self._state_lock:
            return self._buffers.get(algorithm)

    def last_report(self, algorithm: str) -> Optional[GateReport]:
        """The most recent gate decision for ``algorithm``, if any."""
        with self._state_lock:
            return self._reports.get(algorithm)

    def metrics_snapshot(self) -> Dict[str, object]:
        """One JSON-compatible dict: replay depths, versions, gate scores.

        Surfaced by :meth:`MappingServer.metrics_snapshot` under the
        ``"learning"`` key (and thereby ``/v1/metrics``).
        """
        with self._pending_lock:
            pending = sum(len(obs[1]) for obs in self._pending)
        with self._state_lock:
            replay = {
                algorithm: buffer.snapshot()
                for algorithm, buffer in self._buffers.items()
            }
            versions = dict(self._versions)
            gate = {
                algorithm: report.to_dict()
                for algorithm, report in self._reports.items()
            }
            losses = dict(self._last_losses)
        return {
            "pending": pending,
            "observed": self.observed.value,
            "dropped": self.dropped.value,
            "train_rounds": self.train_rounds.value,
            "swaps": self.swaps.value,
            "rejected_swaps": self.rejected_swaps.value,
            "replay": replay,
            "versions": versions,
            "gate": gate,
            "last_train_loss": losses,
        }


__all__ = ["LearnConfig", "OnlineLearner"]
