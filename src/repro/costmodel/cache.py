"""Memoizing cost-oracle wrapper shared by the harness and the engine.

Search traces revisit the same mappings heavily (projection rounds nearby
points onto the same lattice site; populations carry elites forward), so
re-scoring a trace with the true cost model is dominated by duplicate
queries.  :class:`CachedOracle` wraps any oracle exposing the
``evaluate`` / ``evaluate_edp`` signature of
:class:`~repro.costmodel.model.CostModel` and memoizes both, with optional
LRU eviction and hit/miss counters for observability.

Promoted from the harness-private ``_TrueCostCache`` so the experiment
runners and :class:`repro.engine.MappingEngine` share one implementation.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.costmodel.batch import megabatch_shape_stats
from repro.costmodel.stats import CostStats
from repro.mapspace.mapping import Mapping
from repro.obs.trace import span as _kernel_span
from repro.workloads.problem import Problem

#: Tap signature for the oracle's miss path: ``listener(problem, mappings,
#: edps, stats)``.  ``stats`` is the richest label the miss path had in
#: hand — a :class:`~repro.costmodel.batch.BatchCostStats` when the inner
#: backend priced the batch through its vectorized kernels, a list of
#: :class:`CostStats` for scalar ``evaluate`` misses, or ``None`` when only
#: bare EDPs exist.  Listeners must be cheap and must never raise into the
#: serving path; exceptions are swallowed with a warning.
MissListener = Callable[
    [Problem, Sequence[Mapping], Sequence[float], object], None
]


@dataclass(frozen=True)
class CacheStats:
    """Counters snapshot: queries answered from cache vs. the inner oracle.

    ``prewarmed`` counts entries inserted by the scheduler's
    :meth:`CachedOracle.prewarm` hook; those insertions are *not* queries,
    so they appear in neither ``hits`` nor ``misses`` — but the searcher
    lookups they later answer do count as hits, which is why a coalesced
    serving run reports a higher hit rate than the same requests served
    solo (same totals, different attribution).
    """

    hits: int
    misses: int
    size: int
    maxsize: Optional[int]
    prewarmed: int = 0

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from cache (0.0 when never queried)."""
        return self.hits / self.queries if self.queries else 0.0


def problem_key(problem: Problem) -> Hashable:
    """Identity key covering every cost-relevant field of a problem.

    ``Problem`` itself is not hashable (``extra`` is a dict), so cache keys
    flatten it.  Everything that feeds the cost model must participate:
    two problems differing only in ``ops_per_point`` (or tensor
    projections) have different costs and must not share entries.
    """
    return (
        problem.algorithm,
        problem.name,
        problem.dims,
        problem.tensors,
        problem.ops_per_point,
        tuple(sorted(problem.extra.items())),
    )


def problem_fingerprint(problem: Problem) -> str:
    """Stable 16-hex digest of a problem's cost identity.

    The wire/metrics-friendly form of :func:`problem_key`: the cluster's
    consistent-hash ring routes on it and the metrics label dimension
    ``served_by_problem`` buckets on it, so the same problem maps to the
    same shard and the same series on every process.  Lives here (not in
    ``repro.cluster``) so the serving layer can label per-problem metrics
    without importing the cluster package.
    """
    digest = hashlib.sha256(repr(problem_key(problem)).encode("utf-8"))
    return digest.hexdigest()[:16]


def _shape_attrs(problems: Sequence[Problem]):
    """Deferred span attributes: kernel shape stats, built only when a
    trace is actually listening (see ``attrs_fn`` in repro.obs.trace)."""
    return lambda: dict(megabatch_shape_stats(problems))


class CachedOracle:
    """LRU-memoized view of a cost oracle, safe for concurrent callers.

    ``inner`` is anything with ``evaluate(mapping, problem) -> CostStats``
    and ``evaluate_edp(mapping, problem) -> float`` — typically a
    :class:`~repro.costmodel.model.CostModel` or another oracle from
    :mod:`repro.engine.oracle`.  ``maxsize=None`` (the default) caches
    without bound, matching the old harness behaviour; a positive bound
    evicts least-recently-used entries.

    **Concurrency contract** (audited for concurrent serving threads):
    every access to the LRU store *and* to the hit/miss/prewarm counters
    happens under ``self._lock`` — lookups, insertions, eviction,
    ``move_to_end`` recency updates, ``stats()``, and ``clear()``.  The
    lock is released while the inner oracle computes, so concurrent misses
    on the *same* key may each pay one inner query (both counted as
    misses, last insert wins); that duplicated work is benign because the
    inner oracle is deterministic — both threads observe the same value,
    and the store never holds torn state.  The regression hammer in
    ``tests/test_costmodel_cache.py`` drives mixed ``evaluate`` /
    ``evaluate_edp`` / ``evaluate_many`` / ``prewarm`` traffic from many
    threads and checks counters and values stay exact.

    EDP queries are answered from a cached :class:`CostStats` when one
    exists (EDP is derived from stats), so mixed ``evaluate`` /
    ``evaluate_edp`` traffic on the same mapping costs one model query.
    """

    def __init__(self, inner, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be None or >= 1, got {maxsize}")
        self.inner = inner
        self.maxsize = maxsize
        self._lock = threading.Lock()
        # One LRU store; an entry is either a full CostStats (answers both
        # query kinds) or a bare float EDP, so maxsize bounds total entries.
        self._store: "OrderedDict[Tuple[Hashable, Mapping], object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._prewarmed = 0
        self._miss_listener: Optional[MissListener] = None

    def set_miss_listener(self, listener: Optional[MissListener]) -> None:
        """Install (or clear) the miss tap.

        Every mapping the inner oracle prices — ``evaluate`` /
        ``evaluate_edp`` / ``evaluate_many`` misses and ``prewarm``
        insertions — is reported to ``listener`` together with the labels
        the miss path computed anyway, so observers (the online-learning
        replay buffer) get true-cost training samples at zero extra model
        cost.  The listener runs outside the cache lock, on the querying
        thread; it must enqueue and return (heavy work belongs on a
        background thread), and its exceptions are swallowed with a
        warning so a broken observer can never fail a query.
        """
        self._miss_listener = listener

    def _notify_misses(
        self,
        problem: Problem,
        mappings: Sequence[Mapping],
        values: Sequence[float],
        stats: object,
    ) -> None:
        listener = self._miss_listener
        if listener is None or not len(mappings):
            return
        try:
            listener(problem, mappings, values, stats)
        except Exception as error:  # noqa: BLE001 — observers never fail queries
            warnings.warn(
                f"CachedOracle miss listener failed "
                f"({error.__class__.__name__}: {error}); sample dropped"
            )

    def _price_misses_grouped(
        self, groups: Sequence[Tuple[Problem, Sequence[Mapping]]]
    ) -> List[List[float]]:
        """Price per-problem miss lists, the cache's one pricing path.

        ``groups`` pairs each distinct problem with its uncached mappings.
        When the inner backend exposes ``evaluate_megabatch`` (the
        analytical :class:`~repro.costmodel.model.CostModel` and
        ``AnalyticalOracle`` do), every group — one or many — is lowered
        into a single megabatch and priced by one run of the cost kernels,
        and the tap receives each group's ``problem_slice``, a
        :class:`~repro.costmodel.batch.BatchCostStats`, as its labels.
        Other backends (surrogates, caller-supplied oracles) have no
        kernel to share, so each group goes through their own
        ``evaluate_many`` — or a scalar ``evaluate_edp`` loop — and the
        tap receives bare EDPs.
        """
        # The ambient kernel span is a no-op unless a request trace is
        # active; ``attrs_fn`` defers the shape stats to that case.  Spans
        # wrap only real inner-oracle work — cache-hit replays never get
        # here — so ``kernel_s`` measures actual kernel time.
        inner_mega = getattr(self.inner, "evaluate_megabatch", None)
        if inner_mega is None:
            inner_many = getattr(self.inner, "evaluate_many", None)
            results: List[List[float]] = []
            for problem, mappings in groups:
                with _kernel_span("megabatch.kernel", stage="kernel_s",
                                  attrs_fn=_shape_attrs([problem] * len(mappings))):
                    if inner_many is not None:
                        values = [float(v) for v in inner_many(mappings, problem)]
                    else:
                        values = [
                            float(self.inner.evaluate_edp(mapping, problem))
                            for mapping in mappings
                        ]
                self._notify_misses(problem, mappings, values, None)
                results.append(values)
            return results
        lane_mappings: List[Mapping] = []
        lane_problems: List[Problem] = []
        for problem, mappings in groups:
            lane_mappings.extend(mappings)
            lane_problems.extend([problem] * len(mappings))
        with _kernel_span("megabatch.kernel", stage="kernel_s",
                          attrs_fn=_shape_attrs(lane_problems)):
            mega = inner_mega(lane_mappings, lane_problems)
        edp = mega.edp
        listener = self._miss_listener
        results = []
        start = 0
        for g, (problem, mappings) in enumerate(groups):
            end = start + len(mappings)
            values = edp[start:end].tolist()
            results.append(values)
            if listener is not None and mappings:
                self._notify_misses(
                    problem, mappings, values, mega.problem_slice(g)
                )
            start = end
        return results

    # ------------------------------------------------------------------
    # Oracle interface
    # ------------------------------------------------------------------

    def evaluate(self, mapping: Mapping, problem: Problem) -> CostStats:
        key = (problem_key(problem), mapping)
        with self._lock:
            cached = self._store.get(key)
            if isinstance(cached, CostStats):
                self._hits += 1
                self._store.move_to_end(key)
                return cached
            was_known = cached is not None
        stats = self.inner.evaluate(mapping, problem)
        with self._lock:
            self._misses += 1
            # Upgrades an existing bare-EDP entry to the full statistics.
            self._insert(key, stats)
        if not was_known:
            # An upgrade miss re-prices a mapping the tap already saw when
            # its bare EDP was inserted; reporting it again would bias the
            # replay reservoir toward revisited (winning) mappings.
            self._notify_misses(problem, [mapping], [stats.edp], [stats])
        return stats

    def evaluate_edp(self, mapping: Mapping, problem: Problem) -> float:
        key = (problem_key(problem), mapping)
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._hits += 1
                self._store.move_to_end(key)
                return cached.edp if isinstance(cached, CostStats) else cached
        stats: Optional[CostStats] = None
        inner_evaluate = getattr(self.inner, "evaluate", None)
        if self._miss_listener is not None and inner_evaluate is not None:
            # The scalar EDP is defined as evaluate(...).edp, so asking the
            # inner oracle for the full statistics returns the *same* value
            # at the same cost — and gives the tap a full label instead of a
            # bare float (which meta-mode replay buffers must discard).
            try:
                stats = inner_evaluate(mapping, problem)
            except NotImplementedError:
                stats = None  # e.g. a surrogate backend: scalar-only
        if stats is not None:
            value = float(stats.edp)
        else:
            value = float(self.inner.evaluate_edp(mapping, problem))
        with self._lock:
            self._misses += 1
            self._insert(key, stats if stats is not None else value)
        self._notify_misses(
            problem, [mapping], [value], None if stats is None else [stats]
        )
        return value

    def evaluate_many(self, mappings: Sequence[Mapping], problem: Problem) -> List[float]:
        """Batched EDP for mappings of one problem.

        :meth:`evaluate_many_grouped` with every lane on ``problem``:
        answers what it can from the cache, prices *only the misses*
        through the inner oracle in one call, and merges the results back
        in input order.
        """
        return self.evaluate_many_grouped(mappings, [problem] * len(mappings))

    def evaluate_many_grouped(
        self, mappings: Sequence[Mapping], problems: Sequence[Problem]
    ) -> List[float]:
        """Batched EDP for aligned ``(mappings[i], problems[i])`` lanes.

        Hits are answered from cache per lane, and the misses of *all*
        problems are priced in one :meth:`_price_misses_grouped` union — a
        single inner megabatch when the backend has one.  Counters match
        the sequential loop exactly: a batch of k cached mappings and m
        uncached ones counts k hits and m misses, and a mapping repeated
        within a batch is one miss plus hits for the repeats (the repeats
        are served from the first occurrence's result, never re-priced).
        """
        if len(mappings) != len(problems):
            raise ValueError(
                f"grouped lanes misaligned: {len(mappings)} mappings vs "
                f"{len(problems)} problems"
            )
        # Lanes come in runs of one Problem object (all of them, from
        # evaluate_many), so a problem's key is computed once per object
        # and looked up once per run; equal problems behind different
        # objects still share entries through the key.
        pkey_by_id: Dict[int, Hashable] = {}
        keys: List[Tuple[Hashable, Mapping]] = []
        prev: Optional[Problem] = None
        pkey: Hashable = None
        for mapping, problem in zip(mappings, problems):
            if problem is not prev:
                prev = problem
                pkey = pkey_by_id.get(id(problem))
                if pkey is None:
                    pkey = pkey_by_id[id(problem)] = problem_key(problem)
            keys.append((pkey, mapping))
        values: List[Optional[float]] = [None] * len(keys)
        miss_groups: Dict[Hashable, Tuple[Problem, List[int]]] = {}
        group_key: Hashable = None
        group_indices: List[int] = []
        first_miss: Dict[object, int] = {}
        duplicate_of: Dict[int, int] = {}
        with self._lock:
            for index, key in enumerate(keys):
                cached = self._store.get(key)
                if cached is not None:
                    self._hits += 1
                    self._store.move_to_end(key)
                    values[index] = (
                        cached.edp if isinstance(cached, CostStats) else float(cached)
                    )
                elif key in first_miss:
                    # In-batch repeat of an uncached mapping: by the time a
                    # sequential loop reached it, the first occurrence would
                    # have populated the cache — so it counts as a hit.
                    self._hits += 1
                    duplicate_of[index] = first_miss[key]
                else:
                    first_miss[key] = index
                    if key[0] is not group_key:
                        group_key = key[0]
                        group_indices = miss_groups.setdefault(
                            group_key, (problems[index], [])
                        )[1]
                    group_indices.append(index)
        if miss_groups:
            grouped_values = self._price_misses_grouped(
                [
                    (problem, [mappings[i] for i in indices])
                    for problem, indices in miss_groups.values()
                ]
            )
            with self._lock:
                for (problem, indices), miss_values in zip(
                    miss_groups.values(), grouped_values
                ):
                    self._misses += len(indices)
                    for index, value in zip(indices, miss_values):
                        values[index] = value
                        self._insert(keys[index], value)
        for index, source in duplicate_of.items():
            values[index] = values[source]
        return [float(value) for value in values]

    def prewarm(self, mappings: Sequence[Mapping], problem: Problem) -> int:
        """Price every uncached mapping in one inner batch, counter-neutral.

        The scheduler hook behind request coalescing
        (:mod:`repro.serve.cohort`): a lockstep cohort unions the candidate
        batches of many concurrent searches and prewarms them here, so each
        search's own metered ``evaluate_many`` is answered from cache while
        the union rides the widest vectorized path through the inner
        oracle.  Prewarm insertions touch neither ``hits`` nor ``misses``
        (they are not queries — ``CacheStats.prewarmed`` counts them), and
        existing entries are left untouched, including their LRU recency.
        Returns the number of entries inserted.
        """
        return self.prewarm_grouped([(problem, mappings)])

    def prewarm_grouped(
        self, groups: Sequence[Tuple[Problem, Sequence[Mapping]]]
    ) -> int:
        """:meth:`prewarm` for a whole multi-problem round at once.

        Partitions every group's mappings into cached vs. uncached under
        one lock pass, then prices the union of *all* groups' misses
        through one :meth:`_price_misses_grouped` call — a single inner
        cost-kernel run when the backend supports megabatching — and
        inserts the results counter-neutrally (``CacheStats.prewarmed``
        counts insertions, hits/misses are untouched).  Groups repeating a
        problem (by cost identity) are merged first, so each distinct
        problem is priced as one contiguous slice.  Returns the number of
        entries inserted.
        """
        merged: "OrderedDict[Hashable, Tuple[Problem, List[Mapping]]]" = (
            OrderedDict()
        )
        for problem, mappings in groups:
            pkey = problem_key(problem)
            entry = merged.get(pkey)
            if entry is None:
                merged[pkey] = (problem, list(mappings))
            else:
                entry[1].extend(mappings)
        todo_groups: List[Tuple[Hashable, Problem, List[Mapping]]] = []
        with self._lock:
            for pkey, (problem, mappings) in merged.items():
                seen = set()
                todo: List[Mapping] = []
                for mapping in mappings:
                    key = (pkey, mapping)
                    if key in self._store or key in seen:
                        continue
                    seen.add(key)
                    todo.append(mapping)
                if todo:
                    todo_groups.append((pkey, problem, todo))
        if not todo_groups:
            return 0
        grouped_values = self._price_misses_grouped(
            [(problem, todo) for _, problem, todo in todo_groups]
        )
        inserted = 0
        with self._lock:
            for (pkey, _, todo), miss_values in zip(todo_groups, grouped_values):
                for mapping, value in zip(todo, miss_values):
                    key = (pkey, mapping)
                    # Re-check: a concurrent evaluate() may have landed a
                    # full CostStats here while we computed; never downgrade
                    # it to a bare float (or touch its recency).
                    if key in self._store:
                        continue
                    self._insert(key, value)
                    inserted += 1
            self._prewarmed += inserted
        return inserted

    # ------------------------------------------------------------------
    # Introspection / management
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._store),
                maxsize=self.maxsize,
                prewarmed=self._prewarmed,
            )

    def clear(self) -> None:
        """Drop all cached entries and reset the counters."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0
            self._prewarmed = 0

    def _insert(self, key, value) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        if self.maxsize is not None and len(self._store) > self.maxsize:
            self._store.popitem(last=False)


__all__ = [
    "CacheStats",
    "CachedOracle",
    "MissListener",
    "problem_fingerprint",
    "problem_key",
]
