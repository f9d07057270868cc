"""Shared searcher interface: batched ask/tell, budget accounting, traces.

The paper compares search methods on two axes (section 5.2): quality after a
fixed number of *cost-function evaluations* (iso-iteration) and after a fixed
time (iso-time).  A search has one budget, its evaluations:
:class:`BudgetedObjective` counts every recorded candidate as one iteration.
Iso-time runs are iso-iteration runs on a charged clock — each evaluation
costs its searcher a fixed time (:func:`repro.harness.run_iso_time`) — so no
search reads a clock, and a seeded run repeats bit for bit on any machine
and any serving path.

Searchers follow a **batched ask/tell protocol**:

* :meth:`Searcher.reset` initializes per-run state from a seed,
* :meth:`Searcher.ask` proposes the next batch of candidate mappings,
* :meth:`Searcher.tell` feeds back the evaluated ``(mappings, values)``.

:meth:`Searcher.run` is the generic driver: it loops ask → evaluate → tell
against a :class:`BudgetedObjective` until the budget is exhausted.  Every
searcher prices candidates in *whole batches* through its one objective,
:meth:`Searcher.objective_batch` — the surrogate prices a population in one
stacked forward pass, the memoized true-cost oracle
(:class:`~repro.costmodel.cache.CachedOracle`) partitions cache hits from
misses and forwards only the misses.  External drivers (schedulers,
distributed evaluators) can run the same protocol by hand; the parity tests
in ``tests/test_search_asktell.py`` pin ``run()`` to be exactly that loop.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.mapspace.mapping import Mapping
from repro.mapspace.space import MapSpace
from repro.utils.rng import SeedLike


@dataclass
class SearchResult:
    """Complete record of one search run.

    ``objective_values[i]`` is the searcher's own objective for
    ``mappings[i]`` — the true cost for black-box searchers, the surrogate
    prediction for Mind Mappings.
    """

    searcher: str
    problem: str
    mappings: List[Mapping] = field(default_factory=list)
    objective_values: List[float] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.mappings)

    @property
    def best_index(self) -> int:
        if not self.objective_values:
            raise ValueError("empty search result")
        return min(range(len(self.objective_values)), key=self.objective_values.__getitem__)

    @property
    def best_mapping(self) -> Mapping:
        return self.mappings[self.best_index]

    @property
    def best_objective(self) -> float:
        return self.objective_values[self.best_index]

    def best_so_far(self) -> List[float]:
        """Running minimum of the objective (the convergence curve)."""
        best = math.inf
        curve = []
        for value in self.objective_values:
            best = min(best, value)
            curve.append(best)
        return curve

    # ---- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dict of the full trace (inverse of :meth:`from_dict`).

        Mappings serialize via :meth:`Mapping.to_dict`; an engine response
        embeds this dict as its trace (``MappingResponse.to_dict(
        include_trace=True)``, the wire form of :mod:`repro.serve.codec`).
        """
        return {
            "searcher": self.searcher,
            "problem": self.problem,
            "mappings": [mapping.to_dict() for mapping in self.mappings],
            "objective_values": [float(v) for v in self.objective_values],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchResult":
        """Rebuild a result from :meth:`to_dict` output (validates mappings)."""
        return cls(
            searcher=str(payload["searcher"]),
            problem=str(payload["problem"]),
            mappings=[Mapping.from_dict(m) for m in payload["mappings"]],
            objective_values=[float(v) for v in payload["objective_values"]],
        )


class BudgetedObjective:
    """Meters an objective function by evaluations.

    ``objective`` is the batch evaluator (whole batch in, one value per
    candidate out); the ask/tell driver calls :meth:`evaluate_many` for
    every batch of candidates.  All bookkeeping for :class:`SearchResult`
    happens here so individual searchers stay focused on their heuristics.
    Metering is *per candidate*: each evaluated mapping counts one
    iteration.
    """

    def __init__(
        self,
        objective: Callable[[Sequence[Mapping]], Sequence[float]],
        max_evaluations: int,
    ) -> None:
        if max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
        self._objective = objective
        self.max_evaluations = max_evaluations
        self.mappings: List[Mapping] = []
        self.values: List[float] = []

    def evaluate_many(self, mappings: Sequence[Mapping]) -> List[float]:
        """Evaluate + record a batch, truncated to the remaining iterations.

        Returns the values for the recorded *prefix* of ``mappings`` (the
        caller pairs them back with ``mappings[:len(values)]``): never more
        candidates than ``remaining``, as a one-at-a-time
        ``while not exhausted: evaluate`` loop would record.  Raises
        ``RuntimeError`` when the budget is already spent — that would give
        a searcher more iterations than its competitors.
        """
        if self.used >= self.max_evaluations:
            raise RuntimeError("evaluation budget exhausted")
        batch = list(mappings[: self.remaining])
        if not batch:
            return []
        values = [float(v) for v in self._objective(batch)]
        if len(values) != len(batch):
            raise ValueError(
                f"batch objective returned {len(values)} values for "
                f"{len(batch)} mappings"
            )
        self.mappings.extend(batch)
        self.values.extend(values)
        return values

    @property
    def used(self) -> int:
        return len(self.mappings)

    @property
    def exhausted(self) -> bool:
        return self.used >= self.max_evaluations

    @property
    def remaining(self) -> int:
        return max(self.max_evaluations - self.used, 0)

    def result(self, searcher: str, problem: str) -> SearchResult:
        """Freeze the recorded trace into a :class:`SearchResult`."""
        return SearchResult(
            searcher=searcher,
            problem=problem,
            mappings=list(self.mappings),
            objective_values=list(self.values),
        )


class Searcher(abc.ABC):
    """Batched ask/tell interface every search method implements.

    A searcher is a candidate *proposer*: :meth:`reset` seeds its state,
    :meth:`ask` yields the next batch of mappings to price, and
    :meth:`tell` feeds the evaluated batch back so the heuristic can adapt.
    Evaluation itself lives outside the searcher — in :meth:`run`'s budget,
    or any external driver speaking the same protocol — which is what lets
    one searcher be served by a cost model, a memoized oracle, or a stacked
    surrogate forward pass without modification.

    :meth:`objective_batch` is the searcher's one scoring function (true
    log2-EDP for black-box baselines, the surrogate prediction for Mind
    Mappings); ``run()`` wires it into the budget.  ``name`` labels results
    in figures.
    """

    name: str = "searcher"

    def __init__(self, space: MapSpace) -> None:
        self.space = space
        self.problem = space.problem

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def objective_batch(self, mappings: Sequence[Mapping]) -> List[float]:
        """This searcher's objective for each mapping of a batch."""

    # ------------------------------------------------------------------
    # Ask/tell protocol
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def reset(self, seed: SeedLike = None, iterations: Optional[int] = None) -> None:
        """Initialize per-run state.

        ``iterations`` is the driver's evaluation budget when known —
        searchers whose schedules depend on run length (SA's temperature
        schedule, GA's population sizing) read it; others ignore it.
        """

    @abc.abstractmethod
    def ask(self) -> List[Mapping]:
        """Propose the next batch of candidates to evaluate.

        An empty list means the searcher has nothing left to propose (e.g.
        exhaustive enumeration finished) and ends the run.  The driver may
        evaluate only a prefix of the batch (budget truncation); ``tell``
        receives exactly what was evaluated.
        """

    def tell(self, mappings: Sequence[Mapping], values: Sequence[float]) -> None:
        """Incorporate evaluated candidates (default: stateless no-op)."""

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def make_budget(self, iterations: int) -> BudgetedObjective:
        """A budget of ``iterations`` wired to this searcher's objective."""
        return BudgetedObjective(self.objective_batch, iterations)

    def run(self, iterations: int, seed: SeedLike = None) -> SearchResult:
        """The generic ask/tell driver loop.

        Every searcher runs through this exact loop (the parity tests pin
        it): reset state, then ask → evaluate the batch against the budget →
        tell, until the budget is exhausted or ``ask`` returns nothing.
        """
        budget = self.make_budget(iterations)
        self.reset(seed, iterations=iterations)
        while not budget.exhausted:
            batch = self.ask()
            if not batch:
                break
            values = budget.evaluate_many(batch)
            self.tell(batch[: len(values)], values)
        return budget.result(self.name, self.problem.name)


class OracleSearcher(Searcher):
    """Base for black-box searchers scored by a true-cost oracle.

    ``cost_model`` prices a batch of mappings of one problem through
    ``evaluate_many(mappings, problem)`` — a
    :class:`~repro.costmodel.model.CostModel`, or the engine's shared
    :class:`~repro.costmodel.cache.CachedOracle`, which answers hits in
    place and forwards only the misses.  The objective is log2 EDP, the
    scale the paper's iso-iteration figures compare on; each generation is
    one ``evaluate_many`` query.
    """

    def __init__(self, space: MapSpace, cost_model) -> None:
        super().__init__(space)
        self.cost_model = cost_model

    def objective_batch(self, mappings: Sequence[Mapping]) -> List[float]:
        return [
            math.log2(value)
            for value in self.cost_model.evaluate_many(mappings, self.problem)
        ]


__all__ = ["BudgetedObjective", "OracleSearcher", "SearchResult", "Searcher"]
