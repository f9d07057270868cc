"""``repro.engine`` — the serving-grade mapping API.

A stable request/response façade in front of interchangeable search and
cost-oracle backends:

* :mod:`repro.engine.registry` — string-keyed searcher registry
  (``@register_searcher("genetic")`` / ``make_searcher("genetic", space)``)
  that all baselines and the gradient searcher register into,
* :mod:`repro.engine.oracle` — the :class:`CostOracle` protocol (scalar
  ``evaluate``/``evaluate_edp`` plus batched ``evaluate_many``) with
  analytical, surrogate, and cached backends; searchers hand oracles whole
  populations, so the surrogate backend prices a batch in one stacked
  forward pass and the cached backend forwards only its misses,
* :mod:`repro.engine.engine` — :class:`MappingEngine`, which lazily
  trains-or-loads surrogates per (algorithm, accelerator-fingerprint) and
  serves :class:`MappingRequest` → :class:`MappingResponse`, one at a time
  (``engine.map``) or as a coalesced batch (``engine.map_batch``, routed
  through the :mod:`repro.serve` scheduler).

Quickstart::

    from repro.engine import MappingEngine, MappingRequest

    engine = MappingEngine()                       # default accelerator
    response = engine.map(MappingRequest(problem, searcher="gradient",
                                         iterations=500, seed=1))
    print(response.norm_edp, response.stats.summary())

Tests: ``tests/test_engine.py`` (serving, batch determinism, artifact
cache) and ``tests/test_engine_registry.py``.
"""

from repro.engine.oracle import (
    AnalyticalOracle,
    CacheStats,
    CachedOracle,
    CostOracle,
    SurrogateOracle,
    evaluate_many,
)
from repro.engine.registry import (
    make_searcher,
    register_searcher,
    resolve_searcher,
    searcher_names,
    searcher_parameters,
)

# The façade imports repro.core, whose searcher module imports this package
# while registering itself — so it must load lazily (PEP 562), after the
# core package finishes initializing.
_LAZY = ("EngineConfig", "MappingEngine", "MappingRequest", "MappingResponse")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.engine import engine as _engine

        return getattr(_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_LAZY))


__all__ = [
    "AnalyticalOracle",
    "CacheStats",
    "CachedOracle",
    "CostOracle",
    "EngineConfig",
    "MappingEngine",
    "MappingRequest",
    "MappingResponse",
    "SurrogateOracle",
    "evaluate_many",
    "make_searcher",
    "register_searcher",
    "resolve_searcher",
    "searcher_names",
    "searcher_parameters",
]
