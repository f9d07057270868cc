"""Shared utilities: deterministic RNG handling and math helpers.

Every stochastic component in the library accepts either an integer seed or
a :class:`numpy.random.Generator`; :func:`ensure_rng` normalizes both into a
``Generator`` so experiments are reproducible bit-for-bit.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.mathx import (
    clamp,
    divisors,
    factorizations,
    geomean,
    is_power_of_two,
    log2_safe,
    nearest_divisor,
    prod,
    round_to_nearest,
)

__all__ = [
    "clamp",
    "divisors",
    "ensure_rng",
    "factorizations",
    "geomean",
    "is_power_of_two",
    "log2_safe",
    "nearest_divisor",
    "prod",
    "round_to_nearest",
    "spawn_rngs",
]
