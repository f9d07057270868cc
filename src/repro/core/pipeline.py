"""End-to-end Mind Mappings pipeline (the paper's Appendix B API).

One object owns the full two-phase flow:

* **Phase 1 (offline, once per algorithm)** — sample representative
  problems, build the training set against the cost-model oracle, train the
  differentiable surrogate.
* **Phase 2 (online, per target problem)** — projected gradient descent on
  the surrogate to find a low-EDP mapping for any problem of the algorithm,
  including shapes never seen during training.

Typical use::

    mm = MindMappings.train("cnn-layer", accelerator, seed=0)
    mapping, stats = mm.find_mapping(problem, iterations=500, seed=1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.core.dataset import SurrogateDataset, generate_dataset
from repro.core.gradient_search import GradientSearcher
from repro.core.surrogate import Surrogate
from repro.core.trainer import TrainingConfig, TrainingHistory, train_surrogate
from repro.costmodel.accelerator import Accelerator, default_accelerator
from repro.costmodel.model import CostModel
from repro.costmodel.stats import CostStats
from repro.mapspace.mapping import Mapping
from repro.mapspace.space import MapSpace
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs
from repro.workloads.problem import Problem


@dataclass
class MindMappingsConfig:
    """Knobs for the offline phase.

    Defaults are the scaled-down configuration that trains in seconds;
    raise ``dataset_samples`` (the paper used 10 M) and switch
    ``training.hidden_layers`` to ``PAPER_HIDDEN_LAYERS`` to match the
    paper's full recipe.
    """

    dataset_samples: int = 20_000
    n_problems: int = 8
    target_mode: str = "meta"
    training: TrainingConfig = field(default_factory=TrainingConfig)


class MindMappings:
    """A trained Mind Mappings instance for one (algorithm, accelerator).

    This is the paper-shaped two-phase API.  For serving many requests
    across algorithms, searchers, and accelerators — with surrogate
    artifact caching and concurrent batches — use
    :class:`repro.engine.MappingEngine`, which wraps this class.
    """

    def __init__(
        self,
        surrogate: Surrogate,
        accelerator: Accelerator,
        history: Optional[TrainingHistory] = None,
    ) -> None:
        self.surrogate = surrogate
        self.accelerator = accelerator
        self.history = history
        self.cost_model = CostModel(accelerator)

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------

    @classmethod
    def train(
        cls,
        algorithm: str,
        accelerator: Optional[Accelerator] = None,
        config: Optional[MindMappingsConfig] = None,
        *,
        problems: Optional[Sequence[Problem]] = None,
        seed: SeedLike = None,
    ) -> "MindMappings":
        """Run Phase 1 end to end: dataset generation + surrogate training.

        ``problems`` overrides the representative-problem sampler (useful
        for tests and for algorithms without a registered sampler).
        """
        accelerator = accelerator or default_accelerator()
        config = config or MindMappingsConfig()
        rng = ensure_rng(seed)
        data_rng, train_rng = spawn_rngs(rng, 2)
        dataset = generate_dataset(
            algorithm,
            accelerator,
            config.dataset_samples,
            n_problems=config.n_problems,
            problems=problems,
            mode=config.target_mode,
            seed=data_rng,
        )
        return cls.from_dataset(dataset, accelerator, config.training, seed=train_rng)

    @classmethod
    def from_dataset(
        cls,
        dataset: SurrogateDataset,
        accelerator: Accelerator,
        training: Optional[TrainingConfig] = None,
        *,
        seed: SeedLike = None,
    ) -> "MindMappings":
        """Train on an existing dataset (reuse across experiments)."""
        surrogate, history = train_surrogate(dataset, training, seed=seed)
        return cls(surrogate, accelerator, history)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------

    def searcher(self, problem: Problem, **kwargs) -> GradientSearcher:
        """A Phase 2 searcher bound to ``problem`` (kwargs tune PGD)."""
        if problem.algorithm != self.surrogate.algorithm:
            raise ValueError(
                f"surrogate trained for {self.surrogate.algorithm!r}, problem is "
                f"{problem.algorithm!r}"
            )
        from repro.engine.registry import make_searcher

        space = MapSpace(problem, self.accelerator)
        return make_searcher("gradient", space, surrogate=self.surrogate, **kwargs)

    def find_mapping(
        self,
        problem: Problem,
        iterations: int = 500,
        seed: SeedLike = None,
        **kwargs,
    ) -> Tuple[Mapping, CostStats]:
        """Search ``problem`` and return (best mapping, true cost stats).

        The best candidate is chosen by surrogate prediction during the
        search (the oracle is never queried mid-search), then scored once
        with the true cost model for reporting.
        """
        result = self.searcher(problem, **kwargs).run(iterations, seed=seed)
        best = result.best_mapping
        return best, self.cost_model.evaluate(best, problem)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Persist the trained surrogate plus the accelerator fingerprint.

        The fingerprint lets :meth:`load` refuse to pair this surrogate
        with a different accelerator — a silently-wrong combination whose
        predictions are garbage for the hardware actually being mapped.
        """
        self.surrogate.save(
            path, metadata={"accel_fingerprint": self.accelerator.fingerprint()}
        )

    @classmethod
    def load(cls, path: Path, accelerator: Optional[Accelerator] = None) -> "MindMappings":
        """Load a saved surrogate, verifying it matches ``accelerator``.

        Raises ``ValueError`` when the artifact records a fingerprint for a
        different accelerator configuration.  Artifacts saved before
        fingerprints existed load without the check.
        """
        accelerator = accelerator or default_accelerator()
        surrogate, metadata = Surrogate.load_with_metadata(path)
        stored = metadata.get("accel_fingerprint")
        if stored is not None and stored != accelerator.fingerprint():
            raise ValueError(
                f"surrogate at {path} was trained for accelerator fingerprint "
                f"{stored}, but {accelerator.name!r} has fingerprint "
                f"{accelerator.fingerprint()}; retrain (MindMappings.train) or "
                f"load with the matching accelerator"
            )
        return cls(surrogate, accelerator)


__all__ = ["MindMappings", "MindMappingsConfig"]
