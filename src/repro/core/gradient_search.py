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

**Vectorized multi-restart.**  ``restarts=R`` runs R independent descent
chains at once: every ``ask`` proposes all R current points, the batched
objective stacks them into one ``(R, D)`` forward/backward
(:meth:`Surrogate.objective_and_gradient_batch`), and ``tell`` applies all
R projected updates.  One fused pass per iteration instead of R.  BLAS
blocks the R rows of each product together, so a chain can differ in its
last bits (and then in a rounding decision) from the same chain run with
``restarts=1``.  The ``(R, D)`` batch is never split or restacked, so a
seeded search with a given ``restarts`` is bitwise the same whether it is
served alone, batched, or routed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

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
        self._stash: Optional[Tuple[List[Mapping], np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Objective (surrogate only — the true oracle is never queried)
    # ------------------------------------------------------------------

    def objective(self, mapping: Mapping) -> float:
        """Surrogate-predicted log2-normalized EDP for one mapping."""
        whitened = self.surrogate.whiten_mapping(mapping, self.problem)
        return float(self.surrogate.predict_log2_norm_edp(whitened)[0])

    def objective_batch(self, mappings: Sequence[Mapping]) -> List[float]:
        """Batch objective, fused with the gradients ``tell`` will need.

        On descent steps, one stacked forward/backward prices the whole
        batch *and* yields every chain's input gradient; the (whitened,
        gradient) pair is stashed so the following ``tell`` doesn't
        recompute the pass.  Injection candidates only need values, so they
        take the forward-only prediction path (same numbers, no backward).
        """
        mappings = list(mappings)
        whitened = self.surrogate.whiten_mappings(mappings, self.problem)
        if self._injecting:
            return [float(v) for v in self.surrogate.predict_log2_norm_edp(whitened)]
        values, gradients = self.surrogate.objective_and_gradient_batch(whitened)
        self._stash = (mappings, whitened, gradients)
        return [float(v) for v in values]

    def _gradients_for(
        self, mappings: Sequence[Mapping]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(whitened, gradients) rows for ``mappings``, from the stash when
        it matches (the driver evaluates exactly what was asked, possibly
        truncated to a prefix); recomputed otherwise so external drivers
        that score candidates elsewhere still descend correctly."""
        if self._stash is not None:
            stashed, whitened, gradients = self._stash
            n = len(mappings)
            if stashed[:n] == list(mappings):
                return whitened[:n], gradients[:n]
        whitened = self.surrogate.whiten_mappings(mappings, self.problem)
        _, gradients = self.surrogate.objective_and_gradient_batch(whitened)
        return whitened, gradients

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
        self._stash: Optional[Tuple[List[Mapping], np.ndarray, np.ndarray]] = None

    def ask(self) -> List[Mapping]:
        if self._injecting:
            # Step 6: fresh random candidates, one per chain.
            return [self.space.sample(self._rng) for _ in range(len(self._current))]
        return list(self._current)

    def tell(self, mappings: Sequence[Mapping], values: Sequence[float]) -> None:
        if self._injecting:
            self._tell_injection(mappings, values)
            return
        self._tell_descent(mappings, values)

    def _tell_descent(
        self, mappings: Sequence[Mapping], values: Sequence[float]
    ) -> None:
        """Steps 2-5 for every chain, vectorized over the batch."""
        n = len(mappings)
        whitened, gradients = self._gradients_for(mappings)
        gradients = gradients.copy()
        mapping_slice = self.surrogate.encoder.layout.mapping_slice
        # The pid section conditions the surrogate but is not searchable.
        gradients[:, : mapping_slice.start] = 0.0
        if self.normalize_gradient:
            magnitude = np.abs(gradients).max(axis=1, keepdims=True)
            gradients = gradients / np.where(magnitude > 1e-12, magnitude, 1.0)
        escalation = np.asarray(self._escalation[:n], dtype=np.float64)[:, None]
        updated = whitened - self.learning_rate * escalation * gradients
        raw = self.surrogate.input_whitener.inverse(updated)
        for i in range(n):
            decoded = self.surrogate.encoder.decode(raw[i], self.space)
            if self.escalate_when_stuck:
                if decoded == mappings[i]:
                    self._escalation[i] = min(
                        self._escalation[i] * 2.0, self.max_escalation
                    )
                else:
                    self._escalation[i] = 1.0
            self._current[i] = decoded
            self._current_objectives[i] = float(values[i])
        self._step += 1
        if self._step % self.inject_every == 0:
            self._injecting = True

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


__all__ = ["GradientSearcher"]
