"""Genetic-algorithm baseline (paper section 5.2, Appendix A).

Follows the paper's DEAP configuration: population 100 (scalable down for
short budgets), crossover probability 0.75, per-attribute mutation
probability 0.05, fitness = EDP, selection per generation by fitness.
Crossover swaps whole attribute groups (a dimension's tiling, a level's
loop order, a level's bank allocation) between parents — the operation the
paper critiques as assuming attribute strength is composable.

Ask/tell shape: a GA is the textbook population method — every ``ask`` is a
whole generation (the initial population, then each offspring cohort), so
fitness for an entire generation comes back from one batched oracle query.
Elites carry forward between generations without re-evaluation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.model import CostModel
from repro.engine.registry import register_searcher
from repro.mapspace.factors import sample_composition, sample_factorization
from repro.mapspace.mapping import Mapping
from repro.mapspace.space import MapSpace
from repro.search.base import OracleSearcher
from repro.utils.rng import SeedLike, ensure_rng


@register_searcher("genetic", aliases=("ga",))
class GeneticSearcher(OracleSearcher):
    """Tournament-selection GA over mapping attribute groups."""

    name = "GA"

    def __init__(
        self,
        space: MapSpace,
        cost_model: CostModel,
        *,
        population_size: int = 100,
        crossover_probability: float = 0.75,
        mutation_probability: float = 0.05,
        tournament_size: int = 3,
        elite_count: int = 2,
    ) -> None:
        super().__init__(space, cost_model)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")
        if not 0.0 <= mutation_probability <= 1.0:
            raise ValueError("mutation_probability must be in [0, 1]")
        self.population_size = population_size
        self.crossover_probability = crossover_probability
        self.mutation_probability = mutation_probability
        self.tournament_size = max(2, tournament_size)
        self.elite_count = max(0, elite_count)

    # ---- genetic operators -------------------------------------------------

    def _tournament(
        self, fitness: List[float], rng: np.random.Generator
    ) -> int:
        """Index of the fittest of ``tournament_size`` random entrants."""
        entrants = rng.integers(0, len(fitness), size=self.tournament_size)
        return int(min(entrants, key=lambda i: fitness[int(i)]))

    def _crossover(
        self, parent_a: Mapping, parent_b: Mapping, rng: np.random.Generator
    ) -> Mapping:
        """Child of A taking a random subset of B's attribute groups."""
        child = parent_a
        for group in self.space.attribute_groups():
            if rng.random() < 0.5:
                child = self.space.set_group(child, group, self.space.get_group(parent_b, group))
        return child

    def _mutate(self, individual: Mapping, rng: np.random.Generator) -> Mapping:
        """Independently resample each attribute group with probability p."""
        mutated = individual
        bounds = self.problem.bounds
        for group in self.space.attribute_groups():
            if rng.random() >= self.mutation_probability:
                continue
            kind, _, key = group.partition(":")
            if kind == "tile":
                value = sample_factorization(bounds[key], 4, rng)
            elif kind == "order":
                value = self.space.random_loop_order(rng)
            else:  # alloc
                value = sample_composition(
                    self.space.accelerator.banks(key), len(self.space.tensor_names), rng
                )
            mutated = self.space.set_group(mutated, group, value)
        return mutated

    # ---- ask/tell ----------------------------------------------------------

    def reset(self, seed: SeedLike = None, iterations: Optional[int] = None) -> None:
        self._rng = ensure_rng(seed)
        # Scale the population down for short budgets (paper's population of
        # 100 needs at least a couple of generations to mean anything).
        if iterations is not None:
            self._population_size = min(
                self.population_size, max(iterations // 2, 2)
            )
        else:
            self._population_size = self.population_size
        self._population: List[Mapping] = []
        self._fitness: List[float] = []
        self._elites: List[Tuple[Mapping, float]] = []
        self._initialized = False

    def ask(self) -> List[Mapping]:
        if not self._initialized:
            return [self.space.sample(self._rng) for _ in range(self._population_size)]
        # Elitism: carry the best few forward unchanged (no re-eval); breed
        # the rest of the next generation from the current one.
        elite_order = sorted(range(len(self._population)), key=self._fitness.__getitem__)
        self._elites = [
            (self._population[i], self._fitness[i])
            for i in elite_order[: self.elite_count]
        ]
        offspring: List[Mapping] = []
        needed = max(self._population_size - len(self._elites), 1)
        for _ in range(needed):
            parent_a = self._population[self._tournament(self._fitness, self._rng)]
            parent_b = self._population[self._tournament(self._fitness, self._rng)]
            if self._rng.random() < self.crossover_probability:
                child = self._crossover(parent_a, parent_b, self._rng)
            else:
                child = parent_a
            offspring.append(self._mutate(child, self._rng))
        return offspring

    def tell(self, mappings: Sequence[Mapping], values: Sequence[float]) -> None:
        if not self._initialized:
            self._population = list(mappings)
            self._fitness = [float(v) for v in values]
            self._initialized = True
            return
        self._population = [m for m, _ in self._elites] + list(mappings)
        self._fitness = [f for _, f in self._elites] + [float(v) for v in values]


__all__ = ["GeneticSearcher"]
