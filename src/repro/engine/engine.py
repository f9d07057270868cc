"""The serving façade: ``MappingRequest`` → ``MappingEngine`` → ``MappingResponse``.

One engine owns one accelerator and serves mapping requests for any
registered searcher and any algorithm with a representative-problem
sampler.  It keeps the expensive state callers should never manage by
hand:

* **Surrogates** — trained lazily, once per ``(algorithm,
  accelerator-fingerprint)``, and persisted to an on-disk artifact cache so
  later engines (and later processes) skip Phase 1 entirely.  Artifacts
  carry the fingerprint and refuse to load against the wrong hardware.
* **True-cost oracle** — a shared :class:`~repro.costmodel.cache.CachedOracle`
  around the analytical model, so re-scoring the mappings that searches
  revisit costs one model query each.
* **Lower bounds** — per-problem algorithmic minima, cached for normalized
  EDP reporting.

``map`` serves one request; ``map_batch`` serves many by handing the whole
batch to the :mod:`repro.serve` coalescing scheduler, which groups
same-problem requests into lockstep evaluation cohorts — each round, the
candidate batches of every search in the cohort are unioned into one
prewarmed ``evaluate_many`` over the shared memoized oracle, so concurrent
callers share a single vectorized cost-model pass.  Within each request the
search itself is also *batched*: searchers run through the ask/tell driver,
handing whole candidate populations to the shared oracle's
``evaluate_many`` (cache-partitioned) or to the surrogate's stacked
forward pass, instead of scalar queries in a loop.
Responses are deterministic per request seed regardless of batch
composition or scheduling order: the batched cost kernels are row-exact
(each mapping's row is bitwise independent of its batchmates), searchers
read shared surrogate weights but never write them (not even their
``.grad``; pinned by ``tests/test_engine.py::TestSharedSurrogateReadOnly``),
and each search's own state is private.
"""

from __future__ import annotations

import hashlib
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Mapping as MappingType,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.pipeline import MindMappings, MindMappingsConfig
from repro.costmodel.accelerator import Accelerator, default_accelerator
from repro.costmodel.cache import CacheStats, CachedOracle, problem_key
from repro.costmodel.lower_bound import algorithmic_minimum
from repro.costmodel.model import CostModel
from repro.costmodel.stats import CostStats
from repro.engine.registry import make_searcher, resolve_searcher, searcher_parameters
from repro.mapspace.mapping import Mapping
from repro.mapspace.space import MapSpace
from repro.search.base import SearchResult
from repro.workloads.problem import Problem


def _wants_engine_surrogate(
    parameters: MappingType[str, Any], config: MappingType[str, Any]
) -> bool:
    """True when a searcher takes a ``surrogate`` the caller didn't give.

    Signature-driven, like the registry's own ``cost_model`` injection, so
    third-party surrogate-based searchers work without engine changes.
    """
    return "surrogate" in parameters and "surrogate" not in config


#: Entry bound of the shared true-cost cache.  The oracle also serves
#: baseline searchers' in-search queries, so it is bounded to keep a
#: long-lived engine's memory flat.
ORACLE_CACHE_SIZE = 65_536


@dataclass
class EngineConfig:
    """Engine-level knobs (per-request knobs live on :class:`MappingRequest`).

    ``artifact_dir=None`` keeps trained surrogates in memory only;
    otherwise each is saved as
    ``{algorithm}-{accelerator-fingerprint}-{training-fingerprint}.npz``
    and reused across engine instances and processes (engines with a
    different training recipe get separate artifacts).  ``training_problems`` overrides
    the representative-problem sampler per algorithm (how tests train tiny
    surrogates fast, and how algorithms without a registered sampler are
    served).
    """

    mm_config: MindMappingsConfig = field(default_factory=MindMappingsConfig)
    train_seed: int = 0
    artifact_dir: Optional[Path] = None
    training_problems: Optional[MappingType[str, Sequence[Problem]]] = None


@dataclass(frozen=True)
class MappingRequest:
    """One unit of work: find a good mapping for ``problem``.

    ``searcher`` is any name from :func:`repro.engine.searcher_names`
    (aliases like ``"mm"``/``"sa"`` work); ``searcher_config`` passes
    through to its constructor.  ``iterations`` is the search's one budget,
    counted in evaluations: no search reads a clock, so ``seed`` makes the
    response deterministic on every serving path.  ``tag`` is an opaque
    caller correlation id echoed on the response.
    """

    problem: Problem
    searcher: str = "gradient"
    iterations: int = 500
    seed: Optional[int] = None
    searcher_config: MappingType[str, Any] = field(default_factory=dict)
    tag: str = ""

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class MappingResponse:
    """The engine's answer: chosen mapping, true cost, and provenance.

    ``stats``/``norm_edp`` are *true* (analytical-oracle) numbers for the
    best mapping, whatever objective the searcher itself optimized;
    ``best_objective`` is the searcher's own objective value for it.
    ``result`` is the full evaluation trace for convergence analysis.

    ``trace_id``/``stages`` are the observability layer's stamp (see
    :mod:`repro.obs`): the distributed-trace id a traced serving path
    assigned to this request (empty when served untraced, e.g. by a bare
    ``engine.map``) and the per-stage wall-time breakdown — keys like
    ``admission_wait_s`` / ``prepare_s`` / ``prewarm_s`` / ``kernel_s``
    / ``search_rounds_s`` / ``finalize_s`` — whose sum approximates the
    request's observed latency.
    """

    tag: str
    problem: str
    searcher: str
    mapping: Mapping
    stats: CostStats
    norm_edp: float
    best_objective: float
    n_evaluations: int
    search_time_s: float
    total_time_s: float
    result: SearchResult
    provenance: Dict[str, str] = field(default_factory=dict)
    trace_id: str = ""
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def convergence(self) -> List[float]:
        """Best-so-far searcher objective after each evaluation."""
        return self.result.best_so_far()

    def to_dict(self, include_trace: bool = False) -> dict:
        """JSON-compatible dict; ``include_trace`` embeds the full trace.

        The flat ``edp``/``total_energy_pj``/``cycles``/``utilization``
        fields are reading conveniences; ``stats`` carries the full
        :meth:`CostStats.to_dict` codec so :meth:`from_dict` can rebuild
        the response losslessly (the HTTP gateway's wire format).
        """
        payload = {
            "tag": self.tag,
            "problem": self.problem,
            "searcher": self.searcher,
            "mapping": self.mapping.to_dict(),
            "edp": self.stats.edp,
            "total_energy_pj": self.stats.total_energy_pj,
            "cycles": self.stats.cycles,
            "utilization": self.stats.utilization,
            "stats": self.stats.to_dict(),
            "norm_edp": self.norm_edp,
            "best_objective": self.best_objective,
            "n_evaluations": self.n_evaluations,
            "search_time_s": self.search_time_s,
            "total_time_s": self.total_time_s,
            "provenance": dict(self.provenance),
            "trace_id": self.trace_id,
            "stages": {key: float(value) for key, value in self.stages.items()},
        }
        if include_trace:
            payload["result"] = self.result.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: MappingType[str, Any]) -> "MappingResponse":
        """Rebuild a response from :meth:`to_dict` output.

        When the payload was serialized without ``include_trace``, the
        trace is reconstructed as a minimal single-point
        :class:`SearchResult` holding the winning mapping and objective, so
        ``response.result.best_mapping`` and ``convergence`` stay usable;
        ``n_evaluations`` (a stored field) still reports the true count.
        """
        mapping = Mapping.from_dict(payload["mapping"])
        best_objective = float(payload["best_objective"])
        search_time = float(payload["search_time_s"])
        if "result" in payload:
            result = SearchResult.from_dict(payload["result"])
        else:
            result = SearchResult(
                searcher=str(payload["searcher"]),
                problem=str(payload["problem"]),
                mappings=[mapping],
                objective_values=[best_objective],
            )
        return cls(
            tag=str(payload["tag"]),
            problem=str(payload["problem"]),
            searcher=str(payload["searcher"]),
            mapping=mapping,
            stats=CostStats.from_dict(payload["stats"]),
            norm_edp=float(payload["norm_edp"]),
            best_objective=best_objective,
            n_evaluations=int(payload["n_evaluations"]),
            search_time_s=search_time,
            total_time_s=float(payload["total_time_s"]),
            result=result,
            provenance={
                str(k): str(v) for k, v in payload.get("provenance", {}).items()
            },
            trace_id=str(payload.get("trace_id", "")),
            stages={
                str(k): float(v) for k, v in payload.get("stages", {}).items()
            },
        )


@dataclass
class PreparedSearch:
    """A request resolved into a ready-to-run searcher.

    The scheduler hook behind :mod:`repro.serve`: preparing (registry
    resolution, surrogate/oracle injection, searcher construction) is
    separated from running so an external driver can interleave many
    prepared searches in lockstep — coalescing their per-round candidate
    batches into one oracle call — and still finalize each one through
    exactly the code path :meth:`MappingEngine.map` uses.
    ``uses_engine_oracle`` records that the engine injected its own shared
    oracle as the searcher's ``cost_model`` (the precondition for
    cache-prewarm coalescing).
    """

    request: MappingRequest
    name: str
    searcher: Any
    surrogate_source: str
    uses_engine_oracle: bool
    started: float


class MappingEngine:
    """Serves mapping requests for one accelerator across all algorithms."""

    def __init__(
        self,
        accelerator: Optional[Accelerator] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.accelerator = accelerator or default_accelerator()
        self.config = config or EngineConfig()
        self.cost_model = CostModel(self.accelerator)
        self.oracle = CachedOracle(self.cost_model, maxsize=ORACLE_CACHE_SIZE)
        self._pipelines: Dict[str, MindMappings] = {}
        self._pipeline_sources: Dict[str, str] = {}
        self._pipeline_versions: Dict[str, int] = {}
        self._locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._bounds: Dict[Hashable, float] = {}
        self._bounds_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Surrogate lifecycle
    # ------------------------------------------------------------------

    def _training_fingerprint(self, algorithm: str) -> str:
        """Digest of everything that shapes a trained surrogate besides the
        accelerator: the Phase 1 config, the training seed, and any explicit
        training-problem override.  Keeps engines with different training
        recipes (e.g. a test-quality config vs. production) from silently
        sharing one artifact directory entry."""
        problems: Tuple = ()
        if self.config.training_problems is not None:
            override = self.config.training_problems.get(algorithm)
            if override:
                problems = tuple(problem_key(problem) for problem in override)
        payload = repr(
            (
                sorted(asdict(self.config.mm_config).items()),
                self.config.train_seed,
                problems,
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def _artifact_path(self, algorithm: str) -> Optional[Path]:
        if self.config.artifact_dir is None:
            return None
        slug = algorithm.replace("/", "-")
        return (
            Path(self.config.artifact_dir)
            / f"{slug}-{self.accelerator.fingerprint()}"
            f"-{self._training_fingerprint(algorithm)}.npz"
        )

    def _algorithm_lock(self, algorithm: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(algorithm, threading.Lock())

    def pipeline_for(self, algorithm: str) -> MindMappings:
        """The trained :class:`MindMappings` for ``algorithm`` on this engine.

        Resolution order: in-memory → on-disk artifact (fingerprint
        verified) → train now (and persist when an artifact dir is
        configured).  Thread-safe; concurrent requests for the same
        algorithm train once.

        The steady-state read is lock-free: a plain dict lookup (atomic
        under the GIL) answers once a pipeline exists, so the online
        learner's hot-swap (:meth:`install_pipeline`) never blocks the
        request path — readers observe either the old or the new pipeline,
        whole, and in-flight searches keep the surrogate object they
        resolved at prepare time.
        """
        pipeline = self._pipelines.get(algorithm)
        if pipeline is not None:
            return pipeline
        with self._algorithm_lock(algorithm):
            pipeline = self._pipelines.get(algorithm)
            if pipeline is not None:
                return pipeline
            source = "trained"
            path = self._artifact_path(algorithm)
            if path is not None and path.exists():
                try:
                    pipeline = MindMappings.load(path, self.accelerator)
                except Exception as error:
                    # A cache entry that won't deserialize is a miss, not an
                    # outage: retrain and overwrite the bad artifact.
                    warnings.warn(
                        f"discarding unreadable surrogate artifact {path} "
                        f"({error.__class__.__name__}: {error}); retraining"
                    )
                    pipeline = None
                else:
                    if pipeline.surrogate.algorithm != algorithm:
                        raise ValueError(
                            f"artifact {path} holds a surrogate for "
                            f"{pipeline.surrogate.algorithm!r}, expected {algorithm!r}"
                        )
                    source = f"loaded:{path}"
            if pipeline is None:
                problems = None
                if self.config.training_problems is not None:
                    problems = self.config.training_problems.get(algorithm)
                pipeline = MindMappings.train(
                    algorithm,
                    self.accelerator,
                    self.config.mm_config,
                    problems=problems,
                    seed=self.config.train_seed,
                )
                if path is not None:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    pipeline.save(path)
                    source = f"trained+saved:{path}"
            self._pipelines[algorithm] = pipeline
            self._pipeline_sources[algorithm] = source
            return pipeline

    def surrogate_for(self, algorithm: str):
        """The trained surrogate for ``algorithm`` (trains/loads on demand)."""
        return self.pipeline_for(algorithm).surrogate

    def install_pipeline(
        self,
        algorithm: str,
        pipeline: MindMappings,
        source: str = "installed",
        version: Optional[int] = None,
    ) -> None:
        """Pre-load a trained pipeline instead of training lazily.

        For callers that already hold a trained :class:`MindMappings`
        (benchmark sessions, warm standby engines, the online learner's
        hot-swap, the cluster registry watcher).  The pipeline's
        accelerator must match this engine's.  ``version`` records the
        model-registry version this pipeline came from, surfaced by
        :meth:`surrogate_versions` so fleet-wide swap propagation is
        observable; ``None`` means "not from the registry".
        """
        if pipeline.accelerator.fingerprint() != self.accelerator.fingerprint():
            raise ValueError(
                f"pipeline accelerator fingerprint "
                f"{pipeline.accelerator.fingerprint()} does not match engine "
                f"accelerator {self.accelerator.fingerprint()}"
            )
        if pipeline.surrogate.algorithm != algorithm:
            raise ValueError(
                f"pipeline surrogate is for {pipeline.surrogate.algorithm!r}, "
                f"not {algorithm!r}"
            )
        with self._algorithm_lock(algorithm):
            self._pipelines[algorithm] = pipeline
            self._pipeline_sources[algorithm] = source
            if version is None:
                self._pipeline_versions.pop(algorithm, None)
            else:
                self._pipeline_versions[algorithm] = version

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _prepare_search(self, request: MappingRequest) -> PreparedSearch:
        """Resolve a request into a constructed searcher (no evaluation yet)."""
        started = time.perf_counter()
        name = resolve_searcher(request.searcher)
        space = MapSpace(request.problem, self.accelerator)
        config = dict(request.searcher_config)
        parameters = searcher_parameters(name)
        surrogate_source = ""
        if _wants_engine_surrogate(parameters, config):
            config["surrogate"] = self.surrogate_for(request.problem.algorithm)
            surrogate_source = self._pipeline_sources.get(
                request.problem.algorithm, ""
            )
        uses_engine_oracle = False
        if "cost_model" in parameters and "cost_model" not in config:
            # Oracle-driven searchers share the engine's memoized oracle.
            # Their ask/tell driver prices whole populations through
            # ``oracle.evaluate_many``, so each generation is one partitioned
            # cache query (hits answered in place, only misses forwarded).
            config["cost_model"] = self.oracle
            uses_engine_oracle = True
        searcher = make_searcher(name, space, **config)
        return PreparedSearch(
            request=request,
            name=name,
            searcher=searcher,
            surrogate_source=surrogate_source,
            uses_engine_oracle=uses_engine_oracle,
            started=started,
        )

    def _finalize_search(
        self, prepared: PreparedSearch, result: SearchResult, search_time: float
    ) -> MappingResponse:
        """Score the winner with the true oracle and assemble the response."""
        request = prepared.request
        best = result.best_mapping
        stats = self.oracle.evaluate(best, request.problem)
        norm_edp = stats.edp / self._lower_bound_edp(request.problem)
        provenance = {
            "engine": "repro.engine",
            "searcher": prepared.name,
            "accelerator": self.accelerator.name,
            "accel_fingerprint": self.accelerator.fingerprint(),
        }
        if prepared.surrogate_source:
            provenance["surrogate"] = prepared.surrogate_source
        return MappingResponse(
            tag=request.tag,
            problem=request.problem.name,
            searcher=prepared.name,
            mapping=best,
            stats=stats,
            norm_edp=norm_edp,
            best_objective=result.best_objective,
            n_evaluations=result.n_evaluations,
            search_time_s=search_time,
            total_time_s=time.perf_counter() - prepared.started,
            result=result,
            provenance=provenance,
        )

    def map(self, request: MappingRequest) -> MappingResponse:
        """Serve one request: search, score the winner, report provenance.

        The search runs through the generic ask/tell driver
        (:meth:`repro.search.base.Searcher.run`), so population evaluation
        is batched end to end: searchers propose whole generations, and the
        engine's oracle prices each generation in one ``evaluate_many``
        call.
        """
        prepared = self._prepare_search(request)
        search_started = time.perf_counter()
        result = prepared.searcher.run(request.iterations, seed=request.seed)
        search_time = time.perf_counter() - search_started
        return self._finalize_search(prepared, result, search_time)

    def map_batch(
        self, requests: Sequence[MappingRequest]
    ) -> List[MappingResponse]:
        """Serve ``requests`` through the coalescing scheduler
        (:func:`repro.serve.cohort.serve_batch`), in order.  Responses are
        bit-identical to :meth:`map`: per-request seeds and row-exact
        batched stages make the output independent of batch composition.
        """
        from repro.serve.cohort import serve_batch

        return serve_batch(self, requests)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def oracle_stats(self) -> CacheStats:
        """Hit/miss counters of the shared true-cost oracle."""
        return self.oracle.stats()

    def loaded_algorithms(self) -> Dict[str, str]:
        """Algorithms with a live surrogate, mapped to where it came from."""
        return dict(self._pipeline_sources)

    def surrogate_versions(self) -> Dict[str, Dict[str, object]]:
        """Installed surrogate provenance per (algorithm, fingerprint).

        For every algorithm with a live pipeline: the model-registry
        ``version`` it was installed from (``None`` for lazily trained /
        artifact-cache pipelines that never went through a registry), the
        accelerator ``fingerprint`` it is keyed to, and the human-readable
        ``source`` string.  Serving layers surface this in ``snapshot()``
        and ``/v1/healthz`` so cross-process swap propagation — a version
        published on one shard appearing on every other — is observable.
        """
        fingerprint = self.accelerator.fingerprint()
        return {
            algorithm: {
                "version": self._pipeline_versions.get(algorithm),
                "fingerprint": fingerprint,
                "source": source,
            }
            for algorithm, source in self._pipeline_sources.items()
        }

    def _lower_bound_edp(self, problem: Problem) -> float:
        key = problem_key(problem)
        with self._bounds_lock:
            bound = self._bounds.get(key)
        if bound is None:
            bound = algorithmic_minimum(problem, self.accelerator).edp
            with self._bounds_lock:
                self._bounds[key] = bound
        return bound


__all__ = [
    "ORACLE_CACHE_SIZE",
    "EngineConfig",
    "MappingEngine",
    "MappingRequest",
    "MappingResponse",
    "PreparedSearch",
]
