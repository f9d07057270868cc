"""Factorization and composition utilities for tilings and bank allocations.

Tile sizes must exactly factorize each problem dimension across the memory
levels, so uniform map-space sampling reduces to uniform choice among ordered
factorizations, and gradient projection reduces to nearest-factorization
search in log space (paper section 4.2, "Projected Gradient Descent").
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils import factorizations
from repro.utils.rng import SeedLike, ensure_rng


def sample_factorization(n: int, parts: int, rng: SeedLike = None) -> Tuple[int, ...]:
    """Uniformly sample one ordered factorization of ``n`` into ``parts``.

    Uniform over *factorizations* (not over factor values), matching the
    paper's uniform map-space sampling.
    """
    options = factorizations(n, parts)
    generator = ensure_rng(rng)
    return options[int(generator.integers(0, len(options)))]


@functools.lru_cache(maxsize=256)
def _factorization_table(
    ns: Tuple[int, ...], parts: int
) -> Tuple[Tuple[Tuple[int, ...], ...], np.ndarray, np.ndarray, np.ndarray]:
    """The ordered factorizations of every ``n`` in ``ns``, concatenated.

    Returns the options, their ``math.log2`` values, and each ``n``'s
    segment start and length.  ``math.log2`` because that is what the
    scalar scan used: ``np.log2`` is one ulp off on a few integers (1621
    is the smallest).
    """
    per_n = [factorizations(n, parts) for n in ns]
    options = tuple(option for table in per_n for option in table)
    logs = np.array([[math.log2(v) for v in option] for option in options])
    counts = np.array([len(table) for table in per_n])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    for array in (logs, counts, starts):
        array.setflags(write=False)
    return options, logs, starts, counts


def nearest_factorizations(
    rows: Sequence[Tuple[int, ...]], parts: int, targets: np.ndarray
) -> Tuple[Tuple[int, ...], ...]:
    """The ordered factorization of each ``n`` closest to its target.

    ``rows`` holds tuples of ``n`` (e.g. one problem's bounds per row) and
    ``targets`` one ``(parts,)`` target per ``n``, rows in order: desired,
    possibly fractional or non-dividing factors, e.g. from a gradient
    step.  Distance is the squared L2 norm of per-part ``log2`` ratios, so
    halving and doubling a factor are equally wrong — matching the log2
    encoding the surrogate sees.  Non-positive targets are floored at 1e-9.

    One vectorized pass over the rows' cached tables, concatenated per call
    (the cache never keys on the row mix), resolves every ``n``.
    Distances are summed part by part from left to right and the first
    minimum of each segment wins, so the result is bitwise the scalar
    scan's answer (its early break and strict ``<`` reduce to the first
    argmin).  Raises ``ValueError`` for a NaN or infinite target.
    """
    ns = [n for row in rows for n in row]
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (len(ns), parts):
        raise ValueError(f"targets shape {targets.shape} != ({len(ns)}, {parts})")
    if not ns:
        return ()
    finite = np.isfinite(targets).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(
            f"cannot round target {tuple(targets[row].tolist())} to a "
            f"factorization of {ns[row]}: target is not finite"
        )
    floored = np.maximum(targets, 1e-9).ravel().tolist()
    want = np.array(list(map(math.log2, floored))).reshape(targets.shape)
    tables = [_factorization_table(row, parts) for row in rows]
    offsets = np.cumsum([0] + [len(table[0]) for table in tables[:-1]])
    logs = np.concatenate([table[1] for table in tables])
    counts = np.concatenate([table[3] for table in tables])
    starts = np.concatenate([t[2] + offset for t, offset in zip(tables, offsets)])
    delta = logs - np.repeat(want, counts, axis=0)
    squared = delta * delta
    distance = squared[:, 0].copy()
    for part in range(1, parts):
        distance += squared[:, part]
    minima = np.repeat(np.minimum.reduceat(distance, starts), counts)
    hits = np.flatnonzero(distance == minima)
    first = iter(hits[np.searchsorted(hits, starts)].tolist())
    return tuple(
        table[0][next(first) - offset]
        for table, offset in zip(tables, offsets.tolist())
        for _ in table[3]
    )


def nearest_factorization(
    n: int, parts: int, target: Sequence[float]
) -> Tuple[int, ...]:
    """The ordered factorization of ``n`` closest to ``target`` in log space.

    The one-``n`` case of :func:`nearest_factorizations`.
    """
    if len(target) != parts:
        raise ValueError(f"target has {len(target)} parts, expected {parts}")
    target = [[float(t) for t in target]]
    return nearest_factorizations([(int(n),)], parts, target)[0]


def compositions(total: int, parts: int, min_each: int = 1) -> Tuple[Tuple[int, ...], ...]:
    """All ordered compositions of ``total`` into ``parts`` with lower bound.

    Used to enumerate bank allocations in tiny map spaces.  The count is
    ``C(total - parts * min_each + parts - 1, parts - 1)``; callers should
    only enumerate when that is small.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    spare = total - parts * min_each
    if spare < 0:
        raise ValueError(
            f"cannot split {total} into {parts} parts of at least {min_each}"
        )
    if parts == 1:
        return ((total,),)
    result: List[Tuple[int, ...]] = []
    for head in range(min_each, total - (parts - 1) * min_each + 1):
        for tail in compositions(total - head, parts - 1, min_each):
            result.append((head,) + tail)
    return tuple(result)


def sample_composition(
    total: int, parts: int, rng: SeedLike = None, min_each: int = 1
) -> Tuple[int, ...]:
    """Uniformly sample a composition of ``total`` into ``parts`` >= min_each.

    Stars-and-bars: place ``parts - 1`` cuts uniformly among the spare units,
    which yields the uniform distribution over compositions.
    """
    spare = total - parts * min_each
    if spare < 0:
        raise ValueError(
            f"cannot split {total} into {parts} parts of at least {min_each}"
        )
    generator = ensure_rng(rng)
    if parts == 1:
        return (total,)
    # Choose cut positions among spare + parts - 1 slots.
    slots = spare + parts - 1
    cuts = np.sort(generator.choice(slots, size=parts - 1, replace=False))
    previous = -1
    sizes: List[int] = []
    for cut in cuts:
        sizes.append(int(cut) - previous - 1)
        previous = int(cut)
    sizes.append(slots - 1 - previous)
    return tuple(size + min_each for size in sizes)


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of ``n`` (``n`` itself when prime; 1 for 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    limit = int(math.isqrt(n))
    for candidate in range(2, limit + 1):
        if n % candidate == 0:
            return candidate
    return n


def nearest_composition(
    total: int, parts: int, target: Sequence[float], min_each: int = 1
) -> Tuple[int, ...]:
    """Round real-valued ``target`` to a composition of ``total``.

    Greedy largest-remainder rounding: floor each entry at ``min_each``,
    then distribute the remaining units to the entries with the largest
    fractional shortfall.  Used to project gradient-updated bank-allocation
    fractions back onto valid integer allocations.
    """
    if len(target) != parts:
        raise ValueError(f"target has {len(target)} parts, expected {parts}")
    spare_total = total - parts * min_each
    if spare_total < 0:
        raise ValueError(
            f"cannot split {total} into {parts} parts of at least {min_each}"
        )
    desired = np.maximum(np.asarray(target, dtype=float), 0.0)
    if desired.sum() <= 0:
        desired = np.ones(parts)
    desired = desired / desired.sum() * total
    spare = np.maximum(desired - min_each, 0.0)
    if spare.sum() <= 0:
        base = [min_each] * parts
        remainder = spare_total
        floors = np.zeros(parts)
    else:
        spare = spare / spare.sum() * spare_total
        floors = np.floor(spare)
        base = [min_each + int(f) for f in floors]
        remainder = spare_total - int(floors.sum())
    fractional = spare - floors
    order = np.argsort(-fractional)
    result = list(base)
    for index in order[:remainder]:
        result[int(index)] += 1
    return tuple(result)


def nearest_compositions(
    totals: Sequence[int], targets: np.ndarray, min_each: int = 1
) -> List[Tuple[int, ...]]:
    """:func:`nearest_composition` of ``targets[i]`` into ``totals[i]`` for
    every row at once, bitwise (the same row-wise sums, divisions, floors
    and argsort).  A non-finite row raises ``ValueError``, as the scalar's
    integer conversion does."""
    desired = np.maximum(np.asarray(targets, dtype=float), 0.0)
    n_rows, parts = desired.shape
    totals = np.asarray(totals, dtype=np.int64)
    spare_totals = totals - parts * min_each
    if (spare_totals < 0).any():
        raise ValueError(
            f"cannot split {totals.min()} into {parts} parts of at least {min_each}"
        )
    sums = desired.sum(axis=1)
    if (sums <= 0).any():
        desired[sums <= 0] = 1.0
        sums = desired.sum(axis=1)
    desired = desired / sums[:, None] * totals[:, None]
    spare = np.maximum(desired - min_each, 0.0)
    spare_sums = spare.sum(axis=1)
    # An all-zero spare row stays all zeros: the scalar's flat branch.
    spare = spare / np.where(spare_sums <= 0, 1.0, spare_sums)[:, None]
    spare = spare * spare_totals[:, None]
    floors = np.floor(spare)
    if not np.isfinite(floors).all():
        row = np.asarray(targets)[int(np.argmin(np.isfinite(floors).all(axis=1)))]
        raise ValueError(f"cannot round target {row.tolist()}: target is not finite")
    result = min_each + floors.astype(np.int64)
    remainder = spare_totals - floors.sum(axis=1).astype(np.int64)
    order = np.argsort(-(spare - floors), axis=1)
    bumped = np.arange(parts)[None, :] < remainder[:, None]
    result[np.arange(n_rows)[:, None], order] += bumped
    return [tuple(row) for row in result.tolist()]


__all__ = [
    "compositions",
    "nearest_composition",
    "nearest_compositions",
    "nearest_factorization",
    "nearest_factorizations",
    "sample_composition",
    "sample_factorization",
    "smallest_prime_factor",
]
