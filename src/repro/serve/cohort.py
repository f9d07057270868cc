"""Lockstep cohorts: many concurrent searches, one batch per stage.

A *cohort* is a set of prepared searches — over any mix of problems and
searchers — driven through the batched ask/tell protocol in lockstep.
Each round, the oracle searches' candidate batches, across **all** live
problems, are prewarmed into the engine's shared
:class:`~repro.costmodel.cache.CachedOracle` with a single
``prewarm_grouped`` (one cross-problem megabatch pass of the cost
kernels), and each search's own metered budget replays its batch from
cache.  Mind Mappings (``gradient``) searches share the other stages of
their step: every live member's pending rows are decoded in one call and
its descent batch priced in one stacked surrogate pass
(``settle_descents``, ``prime_descents``).

**Determinism.**  Each member runs *exactly* the generic driver loop of
:meth:`repro.search.base.Searcher.run` — same reset, same
ask → ``budget.evaluate_many`` → tell sequence, same budget truncation.
The cost kernels, the decode and the stacked pass are row-exact — a row
is bitwise independent of its batchmates, over any problems (pinned by
``tests/test_serve_cohort.py``, ``tests/test_costmodel_megabatch.py``,
``tests/test_decode_parity.py`` and
``tests/test_surrogate_pass_parity.py``) — so a search's full trace and
response are bit-identical to serving it solo.

Cohort-ineligible requests (those whose caller supplies a cost model) run
through the same loop as cohorts of one: a single member never prewarms,
so its loop is exactly :meth:`Searcher.run`'s.
:func:`run_cohort` is the one search loop of the serving path, and
:meth:`MappingEngine.map` stays the solo reference.

**Tracing.**  Each traced request records one ``prepare`` span
(``prepare_s``, including a surrogate trained on first use), then one
``search`` span, open from its cohort's start until the member finishes;
the shared prewarm kernels and its own kernel spans nest under it.  Its
``search_rounds_s`` stage is settled once, at finish: the span's wall
time minus the ``kernel_s`` and ``prewarm_s`` that accrued inside it.

**Timing semantics.**  A search's budget is its evaluations, never a
clock, so bit-identity covers every field of a response except its
timings.  A cohort member's ``search_time_s`` is the wall time of a
*shared* execution, including its cohort mates' interleaved rounds.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.core.gradient_search import GradientSearcher, prime_descents, settle_descents
from repro.obs import trace as obs_trace
from repro.engine.engine import (
    MappingEngine,
    MappingRequest,
    MappingResponse,
    PreparedSearch,
)
from repro.mapspace.mapping import Mapping
from repro.workloads.problem import Problem

class _Member:
    """One cohort member: a prepared search, its metered budget, and its
    trace's ``search`` span.

    Built when the cohort starts: the span opens at ``started``, then the
    budget and the searcher's reset run in :meth:`Searcher.run`'s order.
    """

    def __init__(
        self,
        index: int,
        prepared: PreparedSearch,
        handle: Optional[obs_trace.TraceHandle],
        started: float,
        cohort_size: int,
    ) -> None:
        self.index = index
        self.prepared = prepared
        self.searcher = prepared.searcher
        self.descends = isinstance(self.searcher, GradientSearcher)
        self.handle = handle
        self.span_id: Optional[str] = None
        if handle is not None:
            stages = handle.stages
            self._opened = (
                started,
                stages.get("kernel_s", 0.0),
                stages.get("prewarm_s", 0.0),
            )
            self.span_id = handle.open_span(
                "search", start=started, members=cohort_size
            )
        request = prepared.request
        self.budget = self.searcher.make_budget(request.iterations)
        self.searcher.reset(request.seed, iterations=request.iterations)

    def close_search(self) -> None:
        """Close the ``search`` span and settle ``search_rounds_s``: the
        span's wall time minus the kernel and prewarm time inside it."""
        handle = self.handle
        if handle is None:
            return
        end = handle.now()
        handle.close_span(self.span_id, end=end)
        started, kernel, prewarm = self._opened
        stages = handle.stages
        inside = (stages.get("kernel_s", 0.0) - kernel) + (
            stages.get("prewarm_s", 0.0) - prewarm
        )
        handle.add_stage("search_rounds_s", max(end - started - inside, 0.0))


def _handle_at(index: int) -> Optional[obs_trace.TraceHandle]:
    """The open trace handle of batch item ``index`` in the ambient context."""
    outer = obs_trace.current_handles()
    handle = outer[index] if index < len(outer) else None
    return None if handle is None or handle.closed else handle


def coalescible(prepared: PreparedSearch) -> bool:
    """True when this search may join the lockstep cohort: a ``gradient``
    searcher, or the engine's own memoizing oracle on the search path (the
    prewarm writes there)."""
    return (
        isinstance(prepared.searcher, GradientSearcher)
        or prepared.uses_engine_oracle
    )


def _prewarm(
    engine: MappingEngine, round_pairs: Sequence[Tuple[_Member, List[Mapping]]]
) -> None:
    """Price a round's whole union — every member of every problem — in
    one cross-problem kernel pass.

    ``prewarm_grouped`` merges members sharing a problem and issues a
    single inner megabatch for the union's misses.  Budget truncation is
    anticipated (prefixes only) so the last round never prices candidates
    no member will record.
    """
    groups: List[Tuple[Problem, List[Mapping]]] = []
    for member, batch in round_pairs:
        take = batch[: member.budget.remaining]
        if take:
            groups.append((member.prepared.request.problem, take))
    # The shared kernel belongs to every traced member of this round, and
    # to no batchmate outside the cohort.  Its wall time minus the kernel
    # time inside it is each member's ``prewarm_s``.
    handles = [member.handle for member, _ in round_pairs
               if member.handle is not None]
    kernel_before = [handle.stages.get("kernel_s", 0.0) for handle in handles]
    started = handles[0].now() if handles else 0.0
    with obs_trace.activate(handles):
        engine.oracle.prewarm_grouped(groups)
    if handles:
        wall = handles[0].now() - started
        for handle, before in zip(handles, kernel_before):
            kernel = handle.stages.get("kernel_s", 0.0) - before
            handle.add_stage("prewarm_s", max(wall - kernel, 0.0))


def run_cohort(
    engine: MappingEngine, searches: Sequence[Tuple[int, PreparedSearch]]
) -> List[Tuple[int, MappingResponse]]:
    """Drive ``(index, prepared)`` searches in lockstep; their problems may
    differ freely.  Returns ``(index, response)`` pairs in finish order.

    The per-member loop is the :meth:`Searcher.run` driver verbatim; the
    rounds of different members are interleaved only so their candidate
    batches can be unioned — across every live problem in the mix — into
    one prewarmed oracle query per round.  ``index`` picks the member's
    trace handle out of the ambient context, which the server activates
    index-aligned with the batch's request list.
    """
    handles = [_handle_at(index) for index, _ in searches]
    started = next((h.now() for h in handles if h is not None), 0.0)
    search_started = time.perf_counter()
    live = [
        _Member(index, prepared, handle, started, len(searches))
        for (index, prepared), handle in zip(searches, handles)
    ]
    finished: List[Tuple[int, MappingResponse]] = []

    def finish(member: _Member) -> None:
        result = member.budget.result(
            member.searcher.name, member.prepared.request.problem.name
        )
        member.close_search()
        handle = member.handle
        span_id = None if handle is None else handle.open_span("finalize")
        try:
            response = engine._finalize_search(
                member.prepared, result, time.perf_counter() - search_started
            )
        finally:
            if handle is not None:
                handle.close_span(span_id, stage="finalize_s")
        finished.append((member.index, response))

    while live:
        # One shared decode for the members that will ask again.
        settle_descents([
            member.searcher for member in live
            if member.descends and not member.budget.exhausted
        ])
        round_pairs: List[Tuple[_Member, List[Mapping]]] = []
        for member in live:
            if member.budget.exhausted:
                finish(member)
                continue
            batch = member.searcher.ask()
            if not batch:
                finish(member)
                continue
            round_pairs.append((member, batch))
        # Budget truncation is anticipated (prefixes only), as in _prewarm.
        prime_descents([
            (member.searcher, batch[: member.budget.remaining])
            for member, batch in round_pairs if member.descends
        ])
        oracle_pairs = [p for p in round_pairs if p[0].prepared.uses_engine_oracle]
        if len(oracle_pairs) > 1:
            _prewarm(engine, oracle_pairs)
        for member, batch in round_pairs:
            # Replays are cache hits after a prewarm; any residual miss
            # (a round with one oracle member) is this member's own
            # kernel work.
            with obs_trace.activate((member.handle,)):
                values = member.budget.evaluate_many(batch)
            member.searcher.tell(batch[: len(values)], values)
        live = [member for member, _ in round_pairs]
    return finished


def serve_batch(
    engine: MappingEngine, requests: Sequence[MappingRequest]
) -> List[MappingResponse]:
    """Serve ``requests`` with cohort coalescing, preserving input order.

    Every request is prepared first (one ``prepare`` span each), which
    materializes every surrogate the batch needs before any search runs
    (training is the one engine mutation; front-loading it keeps the
    searches read-only on shared state).  Each cohort-ineligible request
    then runs as a cohort of one, in input order; every cohort-eligible
    search — whatever its problem or searcher — joins **one** mixed
    cohort.
    """
    cohorts: List[List[Tuple[int, PreparedSearch]]] = []
    lockstep: List[Tuple[int, PreparedSearch]] = []
    for index, request in enumerate(requests):
        handle = _handle_at(index)
        span_id = None if handle is None else handle.open_span("prepare")
        try:
            prepared = engine._prepare_search(request)
        finally:
            if handle is not None:
                handle.close_span(span_id, stage="prepare_s")
        if coalescible(prepared):
            lockstep.append((index, prepared))
        else:
            cohorts.append([(index, prepared)])
    if lockstep:
        cohorts.append(lockstep)
    responses: List[Optional[MappingResponse]] = [None] * len(requests)
    for cohort in cohorts:
        for index, response in run_cohort(engine, cohort):
            responses[index] = response
    unanswered = [i for i, response in enumerate(responses) if response is None]
    if unanswered:  # -O-safe: the gateway must never relay a None response
        raise RuntimeError(
            f"serve_batch scheduling bug: requests {unanswered} got no response"
        )
    return responses  # type: ignore[return-value]


__all__ = ["coalescible", "run_cohort", "serve_batch"]
