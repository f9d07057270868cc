"""Mapping <-> vector encoding for the surrogate (paper sections 4.1.2, 5.5).

Layout of the encoded vector for a problem with ``D`` dimensions and ``T``
tensors (sections in order)::

    [ pid (D) | tiles (4*D) | loop orders (3*D) | allocations (2*T) ]

* **pid** — log2 of each dimension bound: the problem identifier that lets
  one surrogate generalize across problems of an algorithm (section 4.1.1).
* **tiles** — log2 of the (DRAM, L2, spatial, L1) factor of each dimension.
  Log space makes multiplicative tiling decisions additive, which is the
  geometry gradient descent needs.
* **loop orders** — for each temporal level, the rank of each dimension in
  that level's permutation, normalized to [0, 1].  Decoding argsorts the
  ranks, so any real-valued vector decodes to a valid permutation.
* **allocations** — the fraction of banks given to each tensor at L2/L1.

For CNN-Layer (D=7, T=3) the vector is 62 values; for MTTKRP (D=4, T=4) it
is 40 — matching the paper's reported input widths exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mapspace.factors import nearest_composition, nearest_factorizations
from repro.mapspace.mapping import ALLOC_LEVELS, Mapping, ORDER_LEVELS
from repro.mapspace.space import MapSpace, shared_loop_order
from repro.utils import log2_safe
from repro.workloads.problem import Problem


@dataclass(frozen=True)
class EncodingLayout:
    """Index ranges of each section within the encoded vector."""

    n_dims: int
    n_tensors: int

    @property
    def pid_slice(self) -> slice:
        return slice(0, self.n_dims)

    @property
    def tile_slice(self) -> slice:
        start = self.n_dims
        return slice(start, start + 4 * self.n_dims)

    @property
    def order_slice(self) -> slice:
        start = self.n_dims * 5
        return slice(start, start + 3 * self.n_dims)

    @property
    def alloc_slice(self) -> slice:
        start = self.n_dims * 8
        return slice(start, start + 2 * self.n_tensors)

    @property
    def length(self) -> int:
        return self.n_dims * 8 + self.n_tensors * 2

    @property
    def mapping_slice(self) -> slice:
        """Everything after the pid: the part gradient search may update."""
        return slice(self.n_dims, self.length)


class MappingEncoder:
    """Bidirectional mapping/vector codec for one algorithm family.

    One encoder serves every problem of the algorithm (the dimension and
    tensor orders are fixed by the algorithm), which is what allows a single
    surrogate to train across problems and interpolate to unseen shapes.
    """

    def __init__(self, dims: Sequence[str], tensors: Sequence[str]) -> None:
        if not dims:
            raise ValueError("encoder needs at least one dimension")
        if not tensors:
            raise ValueError("encoder needs at least one tensor")
        self.dims = tuple(dims)
        self.tensors = tuple(tensors)
        self.layout = EncodingLayout(n_dims=len(self.dims), n_tensors=len(self.tensors))

    @classmethod
    def for_problem(cls, problem: Problem) -> "MappingEncoder":
        """Encoder keyed to ``problem``'s canonical dim/tensor order."""
        return cls(problem.dim_names, tuple(t.name for t in problem.tensors))

    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Total encoded vector length (62 for CNN-Layer, 40 for MTTKRP)."""
        return self.layout.length

    def encode(self, mapping: Mapping, problem: Problem) -> np.ndarray:
        """Encode ``mapping`` (for ``problem``) into a raw float vector: the
        one-row case of :meth:`encode_batch`."""
        return self.encode_batch([mapping], problem)[0]

    def encode_batch(self, mappings: Sequence[Mapping], problem: Problem) -> np.ndarray:
        """Encode ``mappings`` into an ``(N, length)`` matrix for ``problem``.

        The only encoding path (``encode`` is its one-row case).  Sections
        are computed column-wise across the whole batch: the
        problem-id once, tile log2s and allocation fractions as single
        vectorized array ops.  This is the input layout — and a large part
        of the speedup — of every batched surrogate path (stacked forward
        passes, vectorized multi-restart gradient search); see
        ``benchmarks/bench_batch_eval.py``.
        """
        n = len(mappings)
        batch = np.empty((n, self.length), dtype=np.float64)
        batch[:, self.layout.pid_slice] = self.pid_vector(problem)
        if not n:
            return batch
        for mapping in mappings:
            if mapping.dims != self.dims:
                raise ValueError(
                    f"mapping dims {mapping.dims} != encoder dims {self.dims}"
                )
            if mapping.tensors != self.tensors:
                raise ValueError(
                    f"mapping tensors {mapping.tensors} != encoder tensors "
                    f"{self.tensors}"
                )
        # Tiles: (N, D, 4) integer factors -> floored log2, row-major per dim
        # (the same 1e-12 floor as log2_safe, applied array-wide).
        tiles = np.asarray([m.tile_factors for m in mappings], dtype=np.float64)
        batch[:, self.layout.tile_slice] = np.log2(
            np.maximum(tiles, 1e-12)
        ).reshape(n, -1)
        # Loop orders: each dim's rank within each level's permutation,
        # normalized to [0, 1].
        n_dims = len(self.dims)
        dim_index = {dim: i for i, dim in enumerate(self.dims)}
        positions = np.arange(n_dims, dtype=np.float64) / max(n_dims - 1, 1)
        ranks = np.empty((n, len(ORDER_LEVELS), n_dims), dtype=np.float64)
        for row, mapping in enumerate(mappings):
            for level_idx, order in enumerate(mapping.loop_orders):
                for position, dim in enumerate(order):
                    ranks[row, level_idx, dim_index[dim]] = positions[position]
        batch[:, self.layout.order_slice] = ranks.reshape(n, -1)
        # Allocations: (N, levels, T) bank counts -> per-level fractions.
        allocation = np.asarray([m.allocation for m in mappings], dtype=np.float64)
        allocation /= allocation.sum(axis=2, keepdims=True)
        batch[:, self.layout.alloc_slice] = allocation.reshape(n, -1)
        return batch

    def decode(self, vector: np.ndarray, space: MapSpace) -> Mapping:
        """Decode a raw vector into the nearest valid mapping of ``space``.

        This is the "round + project" step of projected gradient descent
        (paper section 4.2): tile factors round to the nearest exact
        factorization in log space, order ranks argsort into permutations,
        allocation fractions round to bank compositions, and the result is
        passed through :meth:`MapSpace.project` for capacity repair.

        Every dimension rounds in one vectorized pass over the problem's
        cached factorization tables, and all three loop orders come from
        one stable argsort; the result is bitwise what rounding each
        dimension and level on its own gives (see the decode contract in
        ``docs/BATCH_CONTRACTS.md``).  A NaN tile entry raises
        ``ValueError``; infinite ones clip like any out-of-range entry.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.length,):
            raise ValueError(f"vector shape {vector.shape} != ({self.length},)")
        n_dims, n_tensors = len(self.dims), len(self.tensors)
        bounds = space.problem.bounds
        targets = np.exp2(np.clip(vector[self.layout.tile_slice], 0.0, 40.0))
        tile_factors = nearest_factorizations(
            tuple(bounds[dim] for dim in self.dims), 4, targets.reshape(n_dims, 4)
        )
        ranks = vector[self.layout.order_slice].reshape(len(ORDER_LEVELS), n_dims)
        loop_orders = tuple(
            shared_loop_order(self.dims, tuple(permutation))
            for permutation in np.argsort(ranks, axis=1, kind="stable").tolist()
        )
        fractions = vector[self.layout.alloc_slice].reshape(len(ALLOC_LEVELS), n_tensors)
        allocation = tuple(
            nearest_composition(space.accelerator.banks(level), n_tensors, row)
            for level, row in zip(ALLOC_LEVELS, fractions)
        )
        candidate = Mapping(
            dims=self.dims,
            tile_factors=tile_factors,
            loop_orders=loop_orders,
            tensors=self.tensors,
            allocation=allocation,
        )
        return space.project(candidate)

    def pid_vector(self, problem: Problem) -> np.ndarray:
        """Just the pid section for ``problem`` (log2 dimension bounds)."""
        bounds = problem.bounds
        return np.array([log2_safe(bounds[d]) for d in self.dims], dtype=np.float64)


def encode_batch(
    encoder: MappingEncoder, mappings: Sequence[Mapping], problem: Problem
) -> np.ndarray:
    """Stack ``mappings`` into one ``(N, encoder.length)`` encoding matrix.

    Module-level convenience over :meth:`MappingEncoder.encode_batch` so
    batched callers (oracles, the vectorized gradient searcher) read as
    ``encode_batch(encoder, population, problem)``.
    """
    return encoder.encode_batch(mappings, problem)


__all__ = ["EncodingLayout", "MappingEncoder", "encode_batch"]
