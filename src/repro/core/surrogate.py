"""The differentiable surrogate ``f*`` (paper section 4.1).

Wraps the MLP together with the whitening statistics, the mapping encoder,
and the target codec so callers can move between the three coordinate
systems (structured mappings, raw vectors, whitened vectors) without
bookkeeping.  Critically, :meth:`objective_and_gradient_batch`
differentiates the *predicted log-EDP* with respect to the whitened input
vector — the gradients Phase 2 descends along.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import TargetCodec
from repro.core.encoding import MappingEncoder
from repro.core.normalize import Whitener
from repro.nn import MLP
from repro.mapspace.mapping import Mapping
from repro.mapspace.space import MapSpace
from repro.utils.rng import SeedLike
from repro.workloads.problem import Problem

def _metadata_entries(data) -> Dict[str, str]:
    """Extract ``meta_``-prefixed entries from an open ``.npz`` archive."""
    return {
        key[len("meta_") :]: str(data[key])
        for key in data.files
        if key.startswith("meta_")
    }


#: The paper's 9-layer surrogate topology (hidden widths; section 5.5).
PAPER_HIDDEN_LAYERS: Tuple[int, ...] = (64, 256, 1024, 2048, 2048, 1024, 256, 64)

#: Scaled-down default used by tests and the benchmark harness.
DEFAULT_HIDDEN_LAYERS: Tuple[int, ...] = (64, 256, 256, 128, 64)


@dataclass
class Surrogate:
    """A trained differentiable approximation of the cost function."""

    network: MLP
    encoder: MappingEncoder
    codec: TargetCodec
    input_whitener: Whitener
    target_whitener: Whitener
    algorithm: str

    def __post_init__(self) -> None:
        if self.network.layer_sizes[0] != self.encoder.length:
            raise ValueError(
                f"network input width {self.network.layer_sizes[0]} != "
                f"encoding length {self.encoder.length}"
            )
        if self.network.layer_sizes[-1] != self.codec.width:
            raise ValueError(
                f"network output width {self.network.layer_sizes[-1]} != "
                f"target width {self.codec.width}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        encoder: MappingEncoder,
        codec: TargetCodec,
        input_whitener: Whitener,
        target_whitener: Whitener,
        algorithm: str,
        hidden_layers: Sequence[int] = DEFAULT_HIDDEN_LAYERS,
        rng: SeedLike = None,
    ) -> "Surrogate":
        """An untrained surrogate with the given topology."""
        sizes = [encoder.length, *hidden_layers, codec.width]
        return cls(
            network=MLP(sizes, rng=rng),
            encoder=encoder,
            codec=codec,
            input_whitener=input_whitener,
            target_whitener=target_whitener,
            algorithm=algorithm,
        )

    def clone(self) -> "Surrogate":
        """An independent copy sharing the frozen codec/whitening stats.

        The network weights are deep-copied, so fine-tuning the clone
        (the online-learning trainer's warm start) never perturbs the
        incumbent that live searches are reading.  Encoder, codec, and
        whiteners are immutable-by-contract and shared — the clone must
        keep the incumbent's coordinate systems or its predictions stop
        being comparable in the validation gate.
        """
        network = MLP(
            list(self.network.layer_sizes), activation=self.network.activation
        )
        network.load_state_dict(self.network.state_dict())
        return Surrogate(
            network=network,
            encoder=self.encoder,
            codec=self.codec,
            input_whitener=self.input_whitener,
            target_whitener=self.target_whitener,
            algorithm=self.algorithm,
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict_whitened(self, whitened_inputs: np.ndarray) -> np.ndarray:
        """Whitened target predictions for whitened input rows."""
        inputs = np.atleast_2d(np.asarray(whitened_inputs, dtype=np.float64))
        return self.network.infer(inputs)[0]

    def predict_raw_targets(self, whitened_inputs: np.ndarray) -> np.ndarray:
        """De-whitened (but still log-normalized) target predictions."""
        return self.target_whitener.inverse(self.predict_whitened(whitened_inputs))

    def whiten_mapping(self, mapping: Mapping, problem: Problem) -> np.ndarray:
        """Encode + whiten one mapping into surrogate coordinates."""
        raw = self.encoder.encode(mapping, problem)
        return self.input_whitener.transform(raw)

    def whiten_mappings(
        self, mappings: Sequence[Mapping], problem: Problem
    ) -> np.ndarray:
        """Encode + whiten a population into an ``(N, D)`` coordinate matrix.

        Row ``i`` equals ``whiten_mapping(mappings[i], problem)``; the
        encoding is stacked via :meth:`MappingEncoder.encode_batch` and
        whitened in one vectorized transform.
        """
        raw = self.encoder.encode_batch(mappings, problem)
        return self.input_whitener.transform(raw)

    def predict_log2_norm_edp(self, whitened_inputs: np.ndarray) -> np.ndarray:
        """Predicted ``log2(EDP / lower-bound EDP)`` per input row.

        The scalar objective Phase 2 minimizes; recovered from the
        meta-statistics outputs (total energy + cycles terms) or directly in
        ``edp`` target mode.
        """
        raw = self.predict_raw_targets(whitened_inputs)
        return self.codec.log2_norm_edp_batch(raw)

    def predict_edp_mapping(self, mapping: Mapping, problem: Problem) -> float:
        """Predicted normalized EDP (linear scale) for one mapping."""
        whitened = self.whiten_mapping(mapping, problem)
        return float(2.0 ** self.predict_log2_norm_edp(whitened)[0])

    def predict_edp_many(
        self, mappings: Sequence[Mapping], problem: Problem
    ) -> np.ndarray:
        """Predicted normalized EDP for a whole population, one forward pass.

        The batched counterpart of :meth:`predict_edp_mapping`: encodes the
        population into one ``(N, D)`` matrix and runs a single stacked
        network forward, which is what makes surrogate-backed oracles cheap
        per candidate (see ``benchmarks/bench_batch_eval.py``).
        """
        if not len(mappings):
            return np.empty(0, dtype=np.float64)
        whitened = self.whiten_mappings(mappings, problem)
        return 2.0 ** self.predict_log2_norm_edp(whitened)

    # ------------------------------------------------------------------
    # Phase 2 gradients
    # ------------------------------------------------------------------

    def objective_and_gradient(
        self, whitened_input: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Predicted log2-normalized EDP and its input gradient (one point).

        Thin wrapper over :meth:`objective_and_gradient_batch` for a single
        whitened vector.
        """
        whitened = np.asarray(whitened_input, dtype=np.float64)
        values, gradients = self.objective_and_gradient_batch(whitened[None, :])
        return float(values[0]), gradients[0].copy()

    def objective_and_gradient_batch(
        self, whitened_inputs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row objectives and input gradients in one fused pass.

        ``whitened_inputs`` is ``(N, D)``; returns ``(values, gradients)``
        of shapes ``(N,)`` and ``(N, D)``.  ``(G, N, D)`` items stacked on
        a leading axis return ``(G, N)`` and ``(G, N, D)``: ``np.matmul``
        runs each item's own 2-D products, so every item is bitwise its
        2-D pass (items are never reshaped into one taller matrix).  Values are
        :meth:`predict_log2_norm_edp`'s; one backward from a seed holding
        the target whitener's std in the objective's columns gives exactly
        ``d log2(EDP_hat) / d x`` in whitened input coordinates.  Both are
        bitwise what the autograd graph returned, but no weight gradient is
        computed and the shared network's ``.grad`` is never written (see
        the surrogate pass contract in ``docs/BATCH_CONTRACTS.md``).
        """
        inputs = np.atleast_2d(np.asarray(whitened_inputs, dtype=np.float64))
        output, tape = self.network.infer(inputs)
        values = self.codec.log2_norm_edp_batch(self.target_whitener.inverse(output))
        columns = [self.codec.total_energy_index, self.codec.cycles_index]
        if self.codec.mode == "edp":
            columns = [0]
        seed = np.zeros_like(output)
        seed[..., columns] = self.target_whitener.std[columns]
        return values, self.network.input_gradient(seed, tape)

    def mapping_gradient(
        self, mapping: Mapping, problem: Problem
    ) -> Tuple[float, np.ndarray]:
        """Objective and whitened-space gradient for a structured mapping."""
        whitened = self.whiten_mapping(mapping, problem)
        return self.objective_and_gradient(whitened)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Path, metadata: Optional[Dict[str, str]] = None) -> None:
        """Serialize weights + whitening statistics + metadata to ``.npz``.

        ``metadata`` entries are stored under ``meta_{key}`` and ignored by
        :meth:`load`; read them back with :meth:`read_metadata`.  The
        pipeline uses this to persist the accelerator fingerprint a
        surrogate was trained against.
        """
        payload: Dict[str, np.ndarray] = {
            f"net_{key}": value for key, value in self.network.state_dict().items()
        }
        for key, value in (metadata or {}).items():
            payload[f"meta_{key}"] = np.array(str(value))
        payload["input_mean"] = self.input_whitener.mean
        payload["input_std"] = self.input_whitener.std
        payload["target_mean"] = self.target_whitener.mean
        payload["target_std"] = self.target_whitener.std
        payload["layer_sizes"] = np.array(self.network.layer_sizes)
        payload["activation"] = np.array(self.network.activation)
        payload["dims"] = np.array(self.encoder.dims)
        payload["tensors"] = np.array(self.encoder.tensors)
        payload["mode"] = np.array(self.codec.mode)
        payload["algorithm"] = np.array(self.algorithm)
        np.savez_compressed(path, **payload)

    @staticmethod
    def read_metadata(path: Path) -> Dict[str, str]:
        """The ``metadata`` dict stored by :meth:`save` (empty for old files)."""
        with np.load(path, allow_pickle=False) as data:
            return _metadata_entries(data)

    @classmethod
    def load(cls, path: Path) -> "Surrogate":
        return cls.load_with_metadata(path)[0]

    @classmethod
    def load_with_metadata(cls, path: Path) -> Tuple["Surrogate", Dict[str, str]]:
        """Load surrogate and saved metadata in one archive pass."""
        with np.load(path, allow_pickle=False) as data:
            metadata = _metadata_entries(data)
            encoder = MappingEncoder(
                [str(d) for d in data["dims"]], [str(t) for t in data["tensors"]]
            )
            codec = TargetCodec(n_tensors=len(encoder.tensors), mode=str(data["mode"]))
            sizes = [int(s) for s in data["layer_sizes"]]
            # Archives written before the activation was saved are ReLU.
            activation = (str(data["activation"])
                          if "activation" in data.files else "relu")
            network = MLP(sizes, activation=activation)
            state = {
                key[len("net_") :]: data[key]
                for key in data.files
                if key.startswith("net_")
            }
            network.load_state_dict(state)
            surrogate = cls(
                network=network,
                encoder=encoder,
                codec=codec,
                input_whitener=Whitener(data["input_mean"], data["input_std"]),
                target_whitener=Whitener(data["target_mean"], data["target_std"]),
                algorithm=str(data["algorithm"]),
            )
        return surrogate, metadata


__all__ = ["DEFAULT_HIDDEN_LAYERS", "PAPER_HIDDEN_LAYERS", "Surrogate"]
