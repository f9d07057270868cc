"""Phase 1 training-set generation (paper section 4.1.1).

Answers the paper's four dataset questions concretely:

1. *Which map spaces?*  Several representative problems per algorithm
   (sampled by :mod:`repro.workloads.sampler`), so one surrogate
   generalizes across the algorithm's problem family.
2. *Which mappings?*  Valid mappings only, sampled uniformly at random with
   rejection (``MapSpace.sample``).
3. *How to identify the map space?*  Each sample carries its problem id —
   the log2 dimension bounds prefix of the encoded vector.
4. *Cost per mapping?*  The analytical cost model (our Timeloop stand-in),
   normalized per problem by the algorithmic-minimum lower bound and
   log-transformed (section 4.1.3), then whitened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import MappingEncoder
from repro.core.normalize import Whitener
from repro.costmodel.accelerator import Accelerator, MEMORY_LEVELS
from repro.costmodel.batch import BatchCostStats
from repro.costmodel.lower_bound import AlgorithmicMinimum, algorithmic_minimum
from repro.costmodel.model import CostModel
from repro.costmodel.stats import CostStats
from repro.mapspace.space import MapSpace
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs
from repro.workloads.problem import Problem
from repro.workloads.sampler import sampler_for_algorithm

_LOG_EPS = 1e-12

#: Rows per vectorized pricing/encoding pass in ``generate_dataset``'s
#: uniform phase.  Large enough to amortize the batch kernels, small enough
#: that pending Mapping objects stay a rounding error next to the dataset
#: arrays themselves at paper-scale (10M-sample) generation.
_UNIFORM_CHUNK = 8192


@dataclass(frozen=True)
class TargetCodec:
    """Encodes :class:`CostStats` into surrogate targets and back.

    ``mode="meta"`` produces the paper's meta-statistics vector (per-level
    per-tensor energies, total energy, utilization, cycles — all energies
    and cycles normalized by the problem's lower bound and log2-scaled).
    ``mode="edp"`` produces the scalar log2 normalized EDP — the ablation
    the paper reports is 32.8x worse (section 4.1.3).
    """

    n_tensors: int
    mode: str = "meta"

    def __post_init__(self) -> None:
        if self.mode not in ("meta", "edp"):
            raise ValueError(f"unknown target mode {self.mode!r}")
        if self.n_tensors < 1:
            raise ValueError("need at least one tensor")

    @property
    def width(self) -> int:
        if self.mode == "edp":
            return 1
        return 3 * self.n_tensors + 3

    @property
    def total_energy_index(self) -> int:
        return 3 * self.n_tensors

    @property
    def utilization_index(self) -> int:
        return 3 * self.n_tensors + 1

    @property
    def cycles_index(self) -> int:
        return 3 * self.n_tensors + 2

    def from_stats(
        self, stats: CostStats, lower_bound: AlgorithmicMinimum, tensor_order: Sequence[str]
    ) -> np.ndarray:
        """Raw (pre-whitening) target row for one evaluation."""
        if self.mode == "edp":
            value = np.log2(stats.edp / lower_bound.edp + _LOG_EPS)
            return np.array([value], dtype=np.float64)
        meta = stats.meta_vector(tensor_order)
        target = np.empty(self.width, dtype=np.float64)
        # Per-tensor per-level energies and total energy: normalize by the
        # lower-bound energy and compress with log2.
        energy_entries = 3 * self.n_tensors + 1
        target[:energy_entries] = np.log2(
            meta[:energy_entries] / lower_bound.energy_pj + _LOG_EPS
        )
        target[self.utilization_index] = meta[self.utilization_index]
        target[self.cycles_index] = np.log2(
            meta[self.cycles_index] / lower_bound.cycles + _LOG_EPS
        )
        return target

    def log2_norm_edp(self, target_row: np.ndarray) -> float:
        """log2(EDP / lower-bound EDP) recovered from a raw target row.

        Exact because the lower-bound energy and cycle normalizers multiply
        to the lower-bound EDP.
        """
        row = np.asarray(target_row, dtype=np.float64)
        if self.mode == "edp":
            return float(row[0])
        return float(row[self.total_energy_index] + row[self.cycles_index])

    def log2_norm_edp_batch(self, target_rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`log2_norm_edp` over ``(..., width)`` rows.

        Column arithmetic instead of a per-row python call — the difference
        between a batched surrogate prediction being matmul-bound and being
        codec-bound (see ``benchmarks/bench_batch_eval.py``).
        """
        rows = np.atleast_2d(np.asarray(target_rows, dtype=np.float64))
        if self.mode == "edp":
            return rows[..., 0].copy()
        return rows[..., self.total_energy_index] + rows[..., self.cycles_index]

    def from_edp_batch(
        self, edps: Sequence[float], lower_bound: AlgorithmicMinimum
    ) -> np.ndarray:
        """Raw target rows from bare EDP values (``mode="edp"`` only).

        The online replay tap sometimes observes only scalar EDPs (an
        oracle miss path whose backend returned no full statistics); an
        ``edp``-mode surrogate can still learn from those.  ``meta`` mode
        needs the full meta-statistics vector and raises.
        """
        if self.mode != "edp":
            raise ValueError(
                "from_edp_batch requires mode='edp'; meta-statistics targets "
                "need full CostStats (use from_stats / from_stats_batch)"
            )
        values = np.log2(
            np.asarray(edps, dtype=np.float64) / lower_bound.edp + _LOG_EPS
        )
        return values[:, None]

    def from_stats_batch(
        self,
        batch_stats: BatchCostStats,
        lower_bound: AlgorithmicMinimum,
        tensor_order: Sequence[str],
    ) -> np.ndarray:
        """Raw target rows for a whole batch — vectorized :meth:`from_stats`.

        Row ``i`` equals ``from_stats(batch_stats.stats_at(i), ...)``: the
        same lower-bound normalization and log2 compression, applied as
        column arithmetic over the batched analytical backend's stacked
        meta-statistics (:meth:`repro.costmodel.batch.BatchCostStats.
        meta_matrix`) instead of one Python call per sample.
        """
        if self.mode == "edp":
            values = np.log2(batch_stats.edp / lower_bound.edp + _LOG_EPS)
            return values[:, None].astype(np.float64)
        meta = batch_stats.meta_matrix(tensor_order)
        target = np.empty((len(batch_stats), self.width), dtype=np.float64)
        energy_entries = 3 * self.n_tensors + 1
        target[:, :energy_entries] = np.log2(
            meta[:, :energy_entries] / lower_bound.energy_pj + _LOG_EPS
        )
        target[:, self.utilization_index] = meta[:, self.utilization_index]
        target[:, self.cycles_index] = np.log2(
            meta[:, self.cycles_index] / lower_bound.cycles + _LOG_EPS
        )
        return target


@dataclass
class SurrogateDataset:
    """An in-memory Phase 1 training set with fitted whitening statistics."""

    algorithm: str
    inputs_raw: np.ndarray
    targets_raw: np.ndarray
    problem_names: List[str]
    encoder: MappingEncoder
    codec: TargetCodec
    input_whitener: Whitener = field(init=False)
    target_whitener: Whitener = field(init=False)

    def __post_init__(self) -> None:
        if len(self.inputs_raw) != len(self.targets_raw):
            raise ValueError("inputs and targets misaligned")
        if len(self.inputs_raw) == 0:
            raise ValueError("dataset is empty")
        self.input_whitener = Whitener.fit(self.inputs_raw)
        self.target_whitener = Whitener.fit(self.targets_raw)

    def __len__(self) -> int:
        return len(self.inputs_raw)

    def whitened(self) -> Tuple[np.ndarray, np.ndarray]:
        """(inputs, targets) standardized to mean 0 / std 1."""
        return (
            self.input_whitener.transform(self.inputs_raw),
            self.target_whitener.transform(self.targets_raw),
        )

    def split(
        self, test_fraction: float = 0.1, seed: SeedLike = None
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Whitened (train, test) arrays with a shuffled split."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
        inputs, targets = self.whitened()
        order = np.arange(len(inputs))
        ensure_rng(seed).shuffle(order)
        cut = max(1, int(len(inputs) * test_fraction))
        test_index, train_index = order[:cut], order[cut:]
        return (
            (inputs[train_index], targets[train_index]),
            (inputs[test_index], targets[test_index]),
        )

    def subset(self, count: int, seed: SeedLike = None) -> "SurrogateDataset":
        """A random subsample (for the Figure 7c dataset-size sweep)."""
        if count > len(self):
            raise ValueError(f"cannot subsample {count} from {len(self)}")
        order = ensure_rng(seed).permutation(len(self))[:count]
        return SurrogateDataset(
            algorithm=self.algorithm,
            inputs_raw=self.inputs_raw[order],
            targets_raw=self.targets_raw[order],
            problem_names=[self.problem_names[i] for i in order],
            encoder=self.encoder,
            codec=self.codec,
        )

    # ---- persistence -----------------------------------------------------

    def save(self, path: Path) -> None:
        """Serialize to ``.npz`` (arrays + enough metadata to rebuild)."""
        np.savez_compressed(
            path,
            algorithm=self.algorithm,
            inputs_raw=self.inputs_raw,
            targets_raw=self.targets_raw,
            problem_names=np.array(self.problem_names),
            dims=np.array(self.encoder.dims),
            tensors=np.array(self.encoder.tensors),
            mode=self.codec.mode,
        )

    @classmethod
    def load(cls, path: Path) -> "SurrogateDataset":
        with np.load(path, allow_pickle=False) as data:
            encoder = MappingEncoder(
                [str(d) for d in data["dims"]], [str(t) for t in data["tensors"]]
            )
            codec = TargetCodec(n_tensors=len(encoder.tensors), mode=str(data["mode"]))
            return cls(
                algorithm=str(data["algorithm"]),
                inputs_raw=data["inputs_raw"],
                targets_raw=data["targets_raw"],
                problem_names=[str(n) for n in data["problem_names"]],
                encoder=encoder,
                codec=codec,
            )


def generate_dataset(
    algorithm: str,
    accelerator: Accelerator,
    n_samples: int,
    *,
    n_problems: int = 8,
    problems: Optional[Sequence[Problem]] = None,
    mode: str = "meta",
    elite_fraction: float = 0.0,
    elite_steps: int = 16,
    seed: SeedLike = None,
) -> SurrogateDataset:
    """Build a Phase 1 training set against the cost-model oracle.

    ``n_samples`` mappings are drawn round-robin across representative
    problems (``problems`` overrides the sampler when given, e.g. for
    tests).  Each sample is encoded, evaluated with the cost model, and
    target-normalized by the problem's algorithmic minimum.  Uniform
    samples are priced through the vectorized batched analytical backend
    (one :meth:`~repro.costmodel.model.CostModel.evaluate_batch` per
    problem) and encoded with :meth:`MappingEncoder.encode_batch`, so
    Phase 1 no longer pays a Python-level model walk per sample.

    Samples come from two sources:

    * **uniform** map-space sampling — the paper's baseline strategy, and
    * **hill-climb trajectories** (``elite_fraction`` of the set) — short
      greedy random-neighbor walks whose every visited mapping becomes a
      training sample.  This costs *the same number of oracle queries per
      sample* as uniform sampling, but concentrates coverage in the
      low-cost tail the gradient search must resolve.  The paper uses
      uniform sampling (its default, and ours: ``elite_fraction=0``) and
      names importance-aware sampling as future work (section 4.1.1); the
      trajectory mix implements that direction and is compared against
      uniform in the ablation benchmark.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= elite_fraction <= 1.0:
        raise ValueError(f"elite_fraction must be in [0, 1], got {elite_fraction}")
    if elite_steps < 1:
        raise ValueError(f"elite_steps must be >= 1, got {elite_steps}")
    rng = ensure_rng(seed)
    problem_rng, sample_rng = spawn_rngs(rng, 2)
    if problems is None:
        sampler = sampler_for_algorithm(algorithm)
        problems = sampler.sample_many(n_problems, seed=problem_rng)
    if not problems:
        raise ValueError("need at least one problem")
    for problem in problems:
        if problem.algorithm != algorithm:
            raise ValueError(
                f"problem {problem.name!r} is {problem.algorithm!r}, expected {algorithm!r}"
            )

    encoder = MappingEncoder.for_problem(problems[0])
    codec = TargetCodec(n_tensors=len(encoder.tensors), mode=mode)
    model = CostModel(accelerator)
    spaces = [MapSpace(problem, accelerator) for problem in problems]
    bounds = [algorithmic_minimum(problem, accelerator) for problem in problems]

    inputs = np.empty((n_samples, encoder.length), dtype=np.float64)
    targets = np.empty((n_samples, codec.width), dtype=np.float64)
    names: List[str] = []
    index = 0
    which = 0

    def emit(problem, bound, mapping, stats) -> None:
        nonlocal index
        inputs[index] = encoder.encode(mapping, problem)
        targets[index] = codec.from_stats(stats, bound, encoder.tensors)
        names.append(problem.name)
        index += 1

    # Uniform phase: draw samples one per loop turn, round-robin across
    # problems — the identical RNG stream the sequential loop consumed —
    # and price/encode each problem's share in vectorized passes through
    # the batched analytical backend.  Pricing consumes no randomness, so
    # pending batches flush whenever they reach ``_UNIFORM_CHUNK`` rows,
    # keeping peak memory bounded at paper-scale sample counts instead of
    # holding millions of Mapping objects at once.
    uniform_quota = int(round(n_samples * (1.0 - elite_fraction)))
    pending: List[List[Tuple[int, object]]] = [[] for _ in problems]

    def flush(p_index: int) -> None:
        rows = [row for row, _ in pending[p_index]]
        batch = [mapping for _, mapping in pending[p_index]]
        if not rows:
            return
        problem, bound = problems[p_index], bounds[p_index]
        inputs[rows] = encoder.encode_batch(batch, problem)
        targets[rows] = codec.from_stats_batch(
            model.evaluate_batch(batch, problem), bound, encoder.tensors
        )
        pending[p_index].clear()

    while index < uniform_quota:
        mapping = spaces[which].sample(sample_rng)
        pending[which].append((index, mapping))
        names.append(problems[which].name)
        index += 1
        if len(pending[which]) >= _UNIFORM_CHUNK:
            flush(which)
        which = (which + 1) % len(problems)
    for p_index in range(len(problems)):
        flush(p_index)

    # Hill-climb trajectories: every visited mapping is one sample.  Each
    # step's proposal depends on the previous evaluation, so this phase
    # stays on the scalar model.
    while index < n_samples:
        problem, space, bound = problems[which], spaces[which], bounds[which]
        which = (which + 1) % len(problems)
        mapping = space.sample(sample_rng)
        stats = model.evaluate(mapping, problem)
        emit(problem, bound, mapping, stats)
        best_edp = stats.edp
        for _ in range(elite_steps):
            if index >= n_samples:
                break
            candidate = space.random_neighbor(mapping, sample_rng)
            stats = model.evaluate(candidate, problem)
            emit(problem, bound, candidate, stats)
            if stats.edp <= best_edp:
                mapping, best_edp = candidate, stats.edp
    return SurrogateDataset(
        algorithm=algorithm,
        inputs_raw=inputs,
        targets_raw=targets,
        problem_names=names,
        encoder=encoder,
        codec=codec,
    )


__all__ = ["SurrogateDataset", "TargetCodec", "generate_dataset"]
