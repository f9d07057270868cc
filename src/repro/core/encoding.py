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

import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.mapspace.factors import nearest_compositions, nearest_factorizations
from repro.mapspace.mapping import ALLOC_LEVELS, Mapping, ORDER_LEVELS
from repro.mapspace.space import MapSpace, shared_loop_order
from repro.utils import log2_safe
from repro.workloads.problem import Problem


@functools.lru_cache(maxsize=None)
def _positions(n_dims: int) -> Tuple[float, ...]:
    """Loop positions normalized to [0, 1], shared by every rank row."""
    return tuple((np.arange(n_dims, dtype=np.float64) / max(n_dims - 1, 1)).tolist())


@functools.lru_cache(maxsize=5040)
def _order_ranks(dims: Tuple[str, ...], order: Tuple[str, ...]) -> Tuple[float, ...]:
    """Each dim's normalized rank in ``order``, in ``dims`` order; keyed
    like the ``shared_loop_order`` tuples mappings carry."""
    ranks = dict(zip(order, _positions(len(dims))))
    return tuple(ranks[dim] for dim in dims)


@functools.lru_cache(maxsize=256)
def _pid_row(dims: Tuple[str, ...], names: Tuple[str, ...], bounds: Tuple[int, ...]):
    """The read-only pid section for a problem's ``(names, bounds)``."""
    by_name = dict(zip(names, bounds))
    row = np.array([log2_safe(by_name[dim]) for dim in dims], dtype=np.float64)
    row.setflags(write=False)
    return row


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
        # normalized to [0, 1], looked up per order tuple.
        dims = self.dims
        batch[:, self.layout.order_slice] = [
            [rank for order in m.loop_orders for rank in _order_ranks(dims, order)]
            for m in mappings
        ]
        # Allocations: (N, levels, T) bank counts -> per-level fractions.
        allocation = np.asarray([m.allocation for m in mappings], dtype=np.float64)
        allocation /= allocation.sum(axis=2, keepdims=True)
        batch[:, self.layout.alloc_slice] = allocation.reshape(n, -1)
        return batch

    def decode(
        self, vectors: np.ndarray, spaces: Union[MapSpace, Sequence[MapSpace]]
    ) -> Union[Mapping, List[Mapping]]:
        """Decode raw vectors into the nearest valid mappings of their spaces.

        This is the "round + project" step of projected gradient descent
        (paper section 4.2): tile factors round to the nearest exact
        factorization in log space, order ranks argsort into permutations,
        allocation fractions round to bank compositions, and the result is
        passed through :meth:`MapSpace.project` for capacity repair.

        One ``(length,)`` vector and its space give one mapping; ``(R,
        length)`` rows and one space per row (any problems of the
        algorithm) give R.  Tiles, orders and banks of all rows round in
        one vectorized pass each; only ``project`` runs per row.  Each row
        is bitwise its per-dimension decode (see the decode contract in
        ``docs/BATCH_CONTRACTS.md``), interned in its space.  A NaN tile
        entry raises ``ValueError``; infinite ones clip.
        """
        rows = np.asarray(vectors, dtype=np.float64)
        single = rows.ndim == 1
        if single:
            rows, spaces = rows[None, :], [spaces]
        if rows.ndim != 2 or rows.shape[1] != self.length:
            raise ValueError(f"vector shape {rows.shape[single:]} != ({self.length},)")
        if len(spaces) != len(rows):
            raise ValueError(f"{len(rows)} rows but {len(spaces)} spaces")
        if any(space.dims != self.dims for space in spaces):
            raise ValueError(f"a space's dims differ from encoder dims {self.dims}")
        n, n_dims, n_tensors = len(rows), len(self.dims), len(self.tensors)
        targets = np.exp2(np.clip(rows[:, self.layout.tile_slice], 0.0, 40.0))
        tiles = nearest_factorizations(
            [space._dim_bounds for space in spaces], 4, targets.reshape(n * n_dims, 4)
        )
        ranks = rows[:, self.layout.order_slice].reshape(n, len(ORDER_LEVELS), n_dims)
        permutations = np.argsort(ranks, axis=2, kind="stable").tolist()
        fractions = rows[:, self.layout.alloc_slice].reshape(-1, len(ALLOC_LEVELS), n_tensors)
        banks = [
            nearest_compositions(
                [space._bank_totals[level] for space in spaces], fractions[:, level]
            )
            for level in range(len(ALLOC_LEVELS))
        ]
        mappings = []
        for row, space in enumerate(spaces):
            intern = space.intern
            candidate = Mapping(
                dims=self.dims,
                tile_factors=intern(tiles[row * n_dims : (row + 1) * n_dims]),
                loop_orders=intern(tuple(
                    shared_loop_order(self.dims, tuple(permutation))
                    for permutation in permutations[row]
                )),
                tensors=self.tensors,
                allocation=intern(tuple(intern(level[row]) for level in banks)),
            )
            mappings.append(intern(space.project(candidate)))
        return mappings[0] if single else mappings

    def pid_vector(self, problem: Problem) -> np.ndarray:
        """The read-only pid section for ``problem`` (log2 dimension bounds)."""
        return _pid_row(self.dims, problem.dim_names, problem.pid())


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
