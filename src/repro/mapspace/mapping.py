"""The :class:`Mapping` value type — one point in a map space.

A mapping is stored as aligned tuples (hashable, frozen) rather than dicts so
mappings can be deduplicated in sets and used as cache keys by searchers.
Factor order per dimension is ``(DRAM, L2, spatial, L1)``: the product over
the four entries must equal the dimension bound, making tile extents exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping as MappingType, Sequence, Tuple

from repro.utils import prod

#: Temporal levels carrying a loop order, outermost first.
ORDER_LEVELS: Tuple[str, ...] = ("DRAM", "L2", "L1")

#: Levels with allocatable banked buffers.
ALLOC_LEVELS: Tuple[str, ...] = ("L2", "L1")

#: Index of each factor within a tiling tuple.
FACTOR_SLOTS: Tuple[str, ...] = ("DRAM", "L2", "spatial", "L1")


@dataclass(frozen=True)
class Mapping:
    """A complete assignment to the accelerator's programmable attributes.

    Attributes
    ----------
    dims:
        Problem dimension names, fixing the alignment of ``tile_factors``.
    tile_factors:
        Per dimension, ``(dram, l2, spatial, l1)`` factors whose product is
        the dimension bound.
    loop_orders:
        One permutation of ``dims`` per temporal level in ``ORDER_LEVELS``
        order (outermost level first, outermost loop first within a level).
    tensors:
        Tensor names, fixing the alignment of ``allocation``.
    allocation:
        Per allocatable level (``ALLOC_LEVELS`` order), banks per tensor.
    """

    dims: Tuple[str, ...]
    tile_factors: Tuple[Tuple[int, int, int, int], ...]
    loop_orders: Tuple[Tuple[str, ...], ...]
    tensors: Tuple[str, ...]
    allocation: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        dims, n_dims = self.dims, len(self.dims)
        if len(self.tile_factors) != n_dims:
            raise ValueError("tile_factors must align with dims")
        for dim, factors in zip(dims, self.tile_factors):
            if len(factors) != len(FACTOR_SLOTS):
                raise ValueError(f"dimension {dim!r} needs {len(FACTOR_SLOTS)} factors")
            if min(factors) < 1:
                raise ValueError(f"dimension {dim!r} has non-positive factor {factors}")
        if len(self.loop_orders) != len(ORDER_LEVELS):
            raise ValueError(f"need {len(ORDER_LEVELS)} loop orders")
        expected = frozenset(dims)
        for level, order in zip(ORDER_LEVELS, self.loop_orders):
            if len(order) != n_dims or frozenset(order) != expected:
                raise ValueError(f"loop order at {level} is not a permutation of dims")
        if len(self.allocation) != len(ALLOC_LEVELS):
            raise ValueError(f"need allocations for {ALLOC_LEVELS}")
        n_tensors = len(self.tensors)
        for level, banks in zip(ALLOC_LEVELS, self.allocation):
            if len(banks) != n_tensors:
                raise ValueError(f"allocation at {level} must align with tensors")
            if n_tensors and min(banks) < 1:
                raise ValueError(f"allocation at {level} must give every tensor a bank")

    # ---- tiling accessors -------------------------------------------------

    def dim_index(self, dim: str) -> int:
        try:
            return self.dims.index(dim)
        except ValueError:
            raise KeyError(f"unknown dimension {dim!r}") from None

    def factors(self, dim: str) -> Tuple[int, int, int, int]:
        """``(dram, l2, spatial, l1)`` factors for ``dim``."""
        return self.tile_factors[self.dim_index(dim)]

    def factor(self, dim: str, slot: str) -> int:
        """One factor of ``dim`` by slot name (see ``FACTOR_SLOTS``)."""
        return self.factors(dim)[FACTOR_SLOTS.index(slot)]

    @property
    def spatial_factors(self) -> Dict[str, int]:
        """Per-dimension degree of spatial parallelism."""
        return {dim: f[2] for dim, f in zip(self.dims, self.tile_factors)}

    @property
    def spatial_size(self) -> int:
        """Total number of PEs used (product of spatial factors)."""
        return prod(f[2] for f in self.tile_factors)

    def dim_bound(self, dim: str) -> int:
        """Total iteration bound implied by the factors of ``dim``."""
        return prod(self.factors(dim))

    def tile_extents(self, level: str) -> Dict[str, int]:
        """Per-dimension extent of the data tile resident at ``level``.

        The L1 tile covers the L1 factors only (per PE); the L2 tile covers
        everything below the DRAM-level loops (L2 temporal x spatial x L1);
        DRAM "tiles" are the full problem.
        """
        extents: Dict[str, int] = {}
        for dim, (dram, l2, spatial, l1) in zip(self.dims, self.tile_factors):
            if level == "L1":
                extents[dim] = l1
            elif level == "L2":
                extents[dim] = l1 * spatial * l2
            elif level == "DRAM":
                extents[dim] = l1 * spatial * l2 * dram
            else:
                raise KeyError(f"unknown level {level!r}")
        return extents

    def level_factors(self, level: str) -> Dict[str, int]:
        """Per-dimension temporal loop bound at ``level`` (no spatial)."""
        slot = {"DRAM": 0, "L2": 1, "L1": 3}.get(level)
        if slot is None:
            raise KeyError(f"level {level!r} has no temporal loops")
        return {dim: f[slot] for dim, f in zip(self.dims, self.tile_factors)}

    # ---- loop order and allocation accessors ------------------------------

    def loop_order(self, level: str) -> Tuple[str, ...]:
        """Loop permutation at a temporal level, outermost loop first."""
        try:
            return self.loop_orders[ORDER_LEVELS.index(level)]
        except ValueError:
            raise KeyError(f"unknown temporal level {level!r}") from None

    def alloc_banks(self, level: str) -> Dict[str, int]:
        """Banks assigned to each tensor at an allocatable level."""
        try:
            banks = self.allocation[ALLOC_LEVELS.index(level)]
        except ValueError:
            raise KeyError(f"level {level!r} has no allocation") from None
        return dict(zip(self.tensors, banks))

    def alloc_fraction(self, level: str, tensor: str) -> float:
        """Fraction of the level's banks assigned to ``tensor``."""
        banks = self.alloc_banks(level)
        total = sum(banks.values())
        return banks[tensor] / total if total else 0.0

    # ---- functional updates ------------------------------------------------

    def with_tile_factors(self, dim: str, factors: Sequence[int]) -> "Mapping":
        """Copy of this mapping with ``dim``'s factor tuple replaced."""
        index = self.dim_index(dim)
        updated = list(self.tile_factors)
        updated[index] = tuple(int(f) for f in factors)  # type: ignore[assignment]
        return type(self)(
            self.dims, tuple(updated), self.loop_orders, self.tensors, self.allocation
        )

    def with_loop_order(self, level: str, order: Sequence[str]) -> "Mapping":
        """Copy of this mapping with the loop order at ``level`` replaced."""
        index = ORDER_LEVELS.index(level)
        updated = list(self.loop_orders)
        updated[index] = tuple(order)
        return type(self)(
            self.dims, self.tile_factors, tuple(updated), self.tensors, self.allocation
        )

    def with_allocation(self, level: str, banks: Sequence[int]) -> "Mapping":
        """Copy of this mapping with the bank split at ``level`` replaced."""
        index = ALLOC_LEVELS.index(level)
        updated = list(self.allocation)
        updated[index] = tuple(int(b) for b in banks)
        return type(self)(
            self.dims, self.tile_factors, self.loop_orders, self.tensors, tuple(updated)
        )

    # ---- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dict (inverse of :meth:`from_dict`)."""
        return {
            "dims": list(self.dims),
            "tile_factors": [list(factors) for factors in self.tile_factors],
            "loop_orders": [list(order) for order in self.loop_orders],
            "tensors": list(self.tensors),
            "allocation": [list(banks) for banks in self.allocation],
        }

    @classmethod
    def from_dict(cls, payload: MappingType[str, object]) -> "Mapping":
        """Rebuild a mapping from :meth:`to_dict` output (validates shape)."""
        return cls(
            dims=tuple(str(d) for d in payload["dims"]),
            tile_factors=tuple(
                tuple(int(f) for f in factors) for factors in payload["tile_factors"]
            ),
            loop_orders=tuple(
                tuple(str(d) for d in order) for order in payload["loop_orders"]
            ),
            tensors=tuple(str(t) for t in payload["tensors"]),
            allocation=tuple(
                tuple(int(b) for b in banks) for banks in payload["allocation"]
            ),
        )

    # ---- presentation -------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable rendering (for examples and logs)."""
        lines = ["Mapping:"]
        lines.append("  tiling (DRAM, L2, spatial, L1):")
        for dim, factors in zip(self.dims, self.tile_factors):
            lines.append(f"    {dim}: {factors}")
        for level, order in zip(ORDER_LEVELS, self.loop_orders):
            lines.append(f"  loop order @{level}: {' -> '.join(order)}")
        for level, banks in zip(ALLOC_LEVELS, self.allocation):
            pairs = ", ".join(f"{t}={b}" for t, b in zip(self.tensors, banks))
            lines.append(f"  banks @{level}: {pairs}")
        return "\n".join(lines)


__all__ = ["ALLOC_LEVELS", "FACTOR_SLOTS", "Mapping", "ORDER_LEVELS"]
