"""Phase 2: projected gradient descent on the surrogate (paper section 4.2).

Implements the paper's seven-step loop with its published hyper-parameters
(Appendix A): learning rate 1 with no decay, a random valid mapping injected
every 10 iterations, accepted by a simulated-annealing criterion annealed by
0.75 every 50 injections.  The paper's initial temperature of 50 applies to
its linear normalized-EDP cost scale; our objective is log2-normalized EDP,
so the equivalent default here is 5 (same acceptance behaviour for typical
cost deltas).

Each descent iteration:

1. whiten the current valid mapping(s) into surrogate coordinates,
2. forward + backward through the surrogate for the predicted
   log2-normalized EDP and its gradient w.r.t. the input,
3. step ``x <- x - lr * grad`` (the problem-id section is frozen — it
   conditions the surrogate but is not searchable),
4. decode + project back onto the valid map space (nearest factorization /
   argsort permutation / bank rounding / capacity repair), and
5. periodically consider replacing each point with a fresh random mapping.

Crucially the *true* cost model is never queried during the search — only
the surrogate — which is where the iso-time advantage in Figure 6 comes
from.

**Vectorized multi-restart, lockstep cohorts.**  ``restarts=R`` runs R
descent chains at once: every ``ask`` proposes all R current points, one
``(R, D)`` forward/backward prices them, and ``tell`` steps all R and
leaves the rows pending; the next ``ask`` decodes them (the final step's
decode never runs).  Alone or in a serving cohort, rows are decoded by
:func:`settle_descents` and batches priced by :func:`prime_descents`, one
call for many searchers and bitwise the same as for one.  BLAS blocks the
R rows of a product together, so a chain can differ in its last bits from
the same chain run with ``restarts=1``; the ``(R, D)`` batch is never
split or restacked, so a seeded search is bitwise the same served alone,
batched, or routed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.surrogate import Surrogate
from repro.engine.registry import register_searcher
from repro.mapspace.mapping import Mapping
from repro.mapspace.space import MapSpace
from repro.search.base import Searcher
from repro.utils.rng import SeedLike, ensure_rng


@register_searcher("gradient", aliases=("mm", "mind-mappings"))
class GradientSearcher(Searcher):
    """Mind Mappings' gradient-based searcher (the paper's "MM")."""

    name = "MM"

    def __init__(
        self,
        space: MapSpace,
        surrogate: Surrogate,
        *,
        learning_rate: float = 1.0,
        inject_every: int = 10,
        initial_temperature: float = 5.0,
        temperature_decay: float = 0.75,
        decay_every_injections: int = 50,
        normalize_gradient: bool = True,
        escalate_when_stuck: bool = True,
        max_escalation: float = 16.0,
        restarts: int = 1,
    ) -> None:
        """``normalize_gradient`` scales each step to unit infinity-norm so
        step size is set by ``learning_rate`` alone (whitened units);
        ``escalate_when_stuck`` doubles the effective step whenever the
        projection rounds the update back to the current mapping — without
        it, small gradients can fail to cross a factorization rounding
        threshold and the search idles.  Both default on; disable both for
        the paper's literal update rule (the ablation benchmark compares).
        ``restarts`` runs that many descent chains in lockstep, fused into
        one stacked surrogate pass per iteration."""
        super().__init__(space)
        if surrogate.encoder.dims != space.problem.dim_names:
            raise ValueError(
                f"surrogate is for dims {surrogate.encoder.dims}, problem has "
                f"{space.problem.dim_names}"
            )
        for setting, value in (
            ("learning_rate", learning_rate), ("max_escalation", max_escalation),
            ("initial_temperature", initial_temperature),
            ("temperature_decay", temperature_decay),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{setting} must be finite, got {value}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if inject_every < 1:
            raise ValueError(f"inject_every must be >= 1, got {inject_every}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.surrogate = surrogate
        self.learning_rate = learning_rate
        self.inject_every = inject_every
        self.initial_temperature = initial_temperature
        self.temperature_decay = temperature_decay
        self.decay_every_injections = decay_every_injections
        self.normalize_gradient = normalize_gradient
        self.escalate_when_stuck = escalate_when_stuck
        self.max_escalation = max_escalation
        self.restarts = restarts
        self._injecting = False
        # (batch, whitened, values, gradients) from prime_descents, and
        # (told mappings, stepped raw rows) awaiting settle_descents.
        self._stash: Optional[tuple] = None
        self._pending: Optional[Tuple[List[Mapping], np.ndarray]] = None

    # ------------------------------------------------------------------
    # Objective (surrogate only — the true oracle is never queried)
    # ------------------------------------------------------------------

    def objective(self, mapping: Mapping) -> float:
        """Surrogate-predicted log2-normalized EDP for one mapping."""
        whitened = self.surrogate.whiten_mapping(mapping, self.problem)
        return float(self.surrogate.predict_log2_norm_edp(whitened)[0])

    def objective_batch(self, mappings: Sequence[Mapping]) -> List[float]:
        """Batch objective, fused with the gradients ``tell`` will need.

        On descent steps the values come from the stash
        :func:`prime_descents` filled for exactly this batch, so the
        following ``tell`` doesn't recompute the pass.  Injection
        candidates only need values, so they take the forward-only
        prediction path (same numbers, no backward).
        """
        mappings = list(mappings)
        if self._injecting:
            whitened = self.surrogate.whiten_mappings(mappings, self.problem)
            return [float(v) for v in self.surrogate.predict_log2_norm_edp(whitened)]
        if self._stash is None or self._stash[0] != mappings:
            prime_descents([(self, mappings)])
        return [float(v) for v in self._stash[2]]

    # ------------------------------------------------------------------
    # Ask/tell
    # ------------------------------------------------------------------

    def reset(self, seed: SeedLike = None, iterations: Optional[int] = None) -> None:
        self._rng = ensure_rng(seed)
        self._current = [self.space.sample(self._rng) for _ in range(self.restarts)]
        self._current_objectives = [math.inf] * self.restarts
        self._escalation = [1.0] * self.restarts
        self._temperature = self.initial_temperature
        self._injections = 0
        self._step = 0
        self._injecting = False
        self._stash = None
        self._pending = None

    def ask(self) -> List[Mapping]:
        settle_descents([self])
        if self._injecting:
            # Step 6: fresh random candidates, one per chain.
            return [self.space.sample(self._rng) for _ in range(len(self._current))]
        return list(self._current)

    def tell(self, mappings: Sequence[Mapping], values: Sequence[float]) -> None:
        settle_descents([self])
        if self._injecting:
            self._tell_injection(mappings, values)
            return
        self._tell_descent(mappings, values)

    def _tell_descent(
        self, mappings: Sequence[Mapping], values: Sequence[float]
    ) -> None:
        """Steps 2-3 for every chain, vectorized over the batch (step 4 waits
        for :func:`settle_descents`).  A stash that doesn't match (external
        drivers score elsewhere) is primed afresh."""
        mappings = list(mappings)
        n = len(mappings)
        if self._stash is None or self._stash[0][:n] != mappings:
            prime_descents([(self, mappings)])
        _, whitened, _, gradients = self._stash
        whitened, gradients = whitened[:n], gradients[:n].copy()
        mapping_slice = self.surrogate.encoder.layout.mapping_slice
        # The pid section conditions the surrogate but is not searchable.
        gradients[:, : mapping_slice.start] = 0.0
        if self.normalize_gradient:
            magnitude = np.abs(gradients).max(axis=1, keepdims=True)
            gradients = gradients / np.where(magnitude > 1e-12, magnitude, 1.0)
        escalation = np.asarray(self._escalation[:n], dtype=np.float64)[:, None]
        updated = whitened - self.learning_rate * escalation * gradients
        self._pending = (mappings, self.surrogate.input_whitener.inverse(updated))
        for i in range(n):
            self._current_objectives[i] = float(values[i])
        self._step += 1
        if self._step % self.inject_every == 0:
            self._injecting = True

    def _settle(self, decoded: Sequence[Mapping]) -> None:
        """Step 4's bookkeeping: the decoded rows become the current points."""
        told, _ = self._pending
        self._pending = None
        for i, mapping in enumerate(decoded):
            if self.escalate_when_stuck:
                if mapping == told[i]:
                    self._escalation[i] = min(
                        self._escalation[i] * 2.0, self.max_escalation
                    )
                else:
                    self._escalation[i] = 1.0
            self._current[i] = mapping

    def _tell_injection(
        self, mappings: Sequence[Mapping], values: Sequence[float]
    ) -> None:
        """SA-style acceptance of random injections, per chain."""
        for i, (candidate, candidate_objective) in enumerate(zip(mappings, values)):
            if i >= len(self._current):
                break
            if self._accept(
                float(candidate_objective),
                self._current_objectives[i],
                self._temperature,
                self._rng,
            ):
                self._current[i] = candidate
                self._current_objectives[i] = float(candidate_objective)
                self._escalation[i] = 1.0
        self._injections += 1
        if self._injections % self.decay_every_injections == 0:
            self._temperature *= self.temperature_decay
        self._injecting = False

    # ------------------------------------------------------------------

    def _accept(
        self,
        candidate: float,
        current: float,
        temperature: float,
        rng: np.random.Generator,
    ) -> bool:
        """Simulated-annealing acceptance for random injections."""
        if candidate <= current:
            return True
        if temperature <= 0:
            return False
        return bool(rng.random() < math.exp(-(candidate - current) / temperature))


def settle_descents(searchers: Sequence[GradientSearcher]) -> None:
    """Decode every searcher's pending rows, one
    :meth:`MappingEncoder.decode` call per encoder whatever the problems."""
    groups: Dict[int, List[GradientSearcher]] = {}
    for searcher in searchers:
        if searcher._pending is not None:
            groups.setdefault(id(searcher.surrogate.encoder), []).append(searcher)
    for group in groups.values():
        rows = [searcher._pending[1] for searcher in group]
        spaces = [searcher.space for searcher, block in zip(group, rows) for _ in block]
        decoded = iter(group[0].surrogate.encoder.decode(np.concatenate(rows), spaces))
        for searcher, block in zip(group, rows):
            searcher._settle([next(decoded) for _ in block])


def prime_descents(
    batches: Sequence[Tuple[GradientSearcher, Sequence[Mapping]]]
) -> None:
    """Price descent batches, one pass per surrogate and row count with the
    batches stacked on a leading axis (each keeps its bits), and stash each
    searcher's rows, values and gradients.  Prime exactly the batch the
    searcher will be asked to price: the budget's prefix."""
    groups: Dict[Tuple[int, int], List[Tuple[GradientSearcher, List[Mapping]]]] = {}
    for searcher, batch in batches:
        if not searcher._injecting:
            key = (id(searcher.surrogate), len(batch))
            groups.setdefault(key, []).append((searcher, list(batch)))
    for group in groups.values():
        surrogate = group[0][0].surrogate
        whitened = np.stack([surrogate.whiten_mappings(b, s.problem) for s, b in group])
        values, gradients = surrogate.objective_and_gradient_batch(whitened)
        for item, (searcher, batch) in enumerate(group):
            searcher._stash = (batch, whitened[item], values[item], gradients[item])


__all__ = ["GradientSearcher", "prime_descents", "settle_descents"]
