"""repro — a full reproduction of *Mind Mappings* (ASPLOS 2021).

Mind Mappings (Hegde et al.) searches the algorithm-accelerator mapping
space by training a differentiable MLP surrogate of the accelerator cost
function and running projected gradient descent on it.  This package
re-implements the method and every substrate it depends on from scratch:

* :mod:`repro.workloads`  — problems as affine loop nests (CNN, MTTKRP, ...),
* :mod:`repro.mapspace`   — mappings, validity, sampling, projection,
* :mod:`repro.costmodel`  — a Timeloop-style analytical cost oracle,
* :mod:`repro.nn`         — a from-scratch autograd/MLP framework,
* :mod:`repro.core`       — the Mind Mappings two-phase method itself,
* :mod:`repro.search`     — SA / GA / RL / random / exhaustive baselines,
* :mod:`repro.engine`     — the serving façade: searcher registry and
  :class:`MappingEngine` with its memoized true-cost oracle, surrogate
  artifact caching and coalesced ``map_batch``,
* :mod:`repro.serve`      — the traffic layer: dynamic micro-batching,
  backpressure, duplicate collapsing, live metrics, HTTP gateway,
* :mod:`repro.learn`      — the online surrogate lifecycle: traffic-driven
  replay, background fine-tuning, validation gate, versioned registry,
  lock-free hot-swap,
* :mod:`repro.harness`    — iso-iteration & iso-time experiment harness.

Quickstart (engine API)::

    from repro import MappingEngine, MappingRequest, problem_by_name

    engine = MappingEngine()                  # default 256-PE accelerator
    problem = problem_by_name("ResNet_Conv4")
    response = engine.map(MappingRequest(problem, searcher="gradient",
                                         iterations=500, seed=1))
    print(response.norm_edp, response.stats.summary())

Any registered searcher serves the same request shape — swap
``searcher="annealing" | "genetic" | "rl" | "random" | "exhaustive"`` — and
``engine.map_batch(requests)`` serves many requests through the
:mod:`repro.serve` coalescing scheduler (same-problem searches share
vectorized evaluation rounds, results bit-identical to solo serving).
The paper-shaped two-phase API remains::

    from repro import MindMappings, default_accelerator

    mm = MindMappings.train("cnn-layer", default_accelerator(), seed=0)
    mapping, stats = mm.find_mapping(problem, iterations=500, seed=1)
    print(stats.summary())
"""

from repro.core import (
    GradientSearcher,
    MindMappings,
    MindMappingsConfig,
    Surrogate,
    TrainingConfig,
    generate_dataset,
    train_surrogate,
)
from repro.costmodel import (
    Accelerator,
    CachedOracle,
    CostModel,
    CostStats,
    algorithmic_minimum,
    default_accelerator,
)
from repro.engine import (
    EngineConfig,
    MappingEngine,
    MappingRequest,
    MappingResponse,
    make_searcher,
    register_searcher,
    searcher_names,
)
from repro.mapspace import MapSpace, Mapping
from repro.search import (
    ExhaustiveSearcher,
    GeneticSearcher,
    RLSearcher,
    RandomSearcher,
    SearchResult,
    Searcher,
    SimulatedAnnealingSearcher,
)
from repro.workloads import (
    Problem,
    TABLE1_PROBLEMS,
    TRANSFORMER_PROBLEMS,
    make_cnn_layer,
    make_conv1d,
    make_gemm,
    make_mttkrp,
    problem_by_name,
    transformer_problems,
)

__version__ = "1.0.0"

__all__ = [
    "Accelerator",
    "CachedOracle",
    "CostModel",
    "CostStats",
    "EngineConfig",
    "ExhaustiveSearcher",
    "GeneticSearcher",
    "GradientSearcher",
    "MapSpace",
    "Mapping",
    "MappingEngine",
    "MappingRequest",
    "MappingResponse",
    "MindMappings",
    "MindMappingsConfig",
    "Problem",
    "RLSearcher",
    "RandomSearcher",
    "SearchResult",
    "Searcher",
    "SimulatedAnnealingSearcher",
    "Surrogate",
    "TABLE1_PROBLEMS",
    "TRANSFORMER_PROBLEMS",
    "TrainingConfig",
    "algorithmic_minimum",
    "default_accelerator",
    "generate_dataset",
    "make_cnn_layer",
    "make_conv1d",
    "make_gemm",
    "make_mttkrp",
    "make_searcher",
    "problem_by_name",
    "register_searcher",
    "searcher_names",
    "train_surrogate",
    "transformer_problems",
]
