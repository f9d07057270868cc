"""``repro.engine`` — the serving-grade mapping API.

A stable request/response façade in front of interchangeable searchers
and one memoized true-cost oracle:

* :mod:`repro.engine.registry` — string-keyed searcher registry
  (``@register_searcher("genetic")`` / ``make_searcher("genetic", space)``)
  that all baselines and the gradient searcher register into,
* :mod:`repro.engine.engine` — :class:`MappingEngine`, which lazily
  trains-or-loads surrogates per (algorithm, accelerator-fingerprint),
  prices every true cost through its
  :class:`~repro.costmodel.cache.CachedOracle` over the analytical
  :class:`~repro.costmodel.model.CostModel` (searchers hand it whole
  populations; it forwards only its misses, in one megabatch kernel call),
  and serves :class:`MappingRequest` → :class:`MappingResponse`, one at a
  time (``engine.map``) or as a coalesced batch (``engine.map_batch``,
  routed through the :mod:`repro.serve` scheduler).

Quickstart::

    from repro.engine import MappingEngine, MappingRequest

    engine = MappingEngine()                       # default accelerator
    response = engine.map(MappingRequest(problem, searcher="gradient",
                                         iterations=500, seed=1))
    print(response.norm_edp, response.stats.summary())

Tests: ``tests/test_engine.py`` (serving, batch determinism, artifact
cache) and ``tests/test_engine_registry.py``.
"""

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
    "EngineConfig",
    "MappingEngine",
    "MappingRequest",
    "MappingResponse",
    "make_searcher",
    "register_searcher",
    "resolve_searcher",
    "searcher_names",
    "searcher_parameters",
]
