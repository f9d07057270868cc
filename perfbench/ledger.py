"""Span recording around the program's public layer entry points.

The traced run installs a wrapper around each callable in ``LAYER_SPANS``
(classes and module attributes of ``repro``) for that run only.  A wrapper
records one span: name, start, end, parent (the innermost wrapped call
open on the same thread) and context — the ``serve_batch`` call it ran
under, or the request tag for calls made on behalf of one request.  Spans
stay in memory; the run writes them out when it ends.

A span's self time is its duration minus its children's.  Children always
run on their parent's thread inside the parent's interval, so they never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, owner attribute or None for a module function, attribute, span).
#: Module-level functions are patched where their caller looks them up.
LAYER_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.mapspace.space", "MapSpace", "sample", "mapspace.sample"),
    ("repro.mapspace.space", "MapSpace", "project", "mapspace.project"),
    ("repro.mapspace.space", "MapSpace", "random_neighbor", "mapspace.neighbor"),
    ("repro.search.random_search", "RandomSearcher", "ask", "search.ask"),
    ("repro.search.annealing", "SimulatedAnnealingSearcher", "ask", "search.ask"),
    ("repro.search.genetic", "GeneticSearcher", "ask", "search.ask"),
    ("repro.core.gradient_search", "GradientSearcher", "ask", "search.ask"),
    ("repro.search.base", "Searcher", "tell", "search.tell"),
    ("repro.search.annealing", "SimulatedAnnealingSearcher", "tell", "search.tell"),
    ("repro.search.genetic", "GeneticSearcher", "tell", "search.tell"),
    ("repro.core.gradient_search", "GradientSearcher", "tell", "search.tell"),
    ("repro.search.random_search", "RandomSearcher", "reset", "search.reset"),
    ("repro.search.annealing", "SimulatedAnnealingSearcher", "reset", "search.reset"),
    ("repro.search.genetic", "GeneticSearcher", "reset", "search.reset"),
    ("repro.core.gradient_search", "GradientSearcher", "reset", "search.reset"),
    ("repro.search.base", "BudgetedObjective", "evaluate_many", "search.budget"),
    ("repro.costmodel.batch", None, "compile_megabatch", "costmodel.mega_compile"),
    ("repro.costmodel.batch", None, "evaluate_mega_compiled", "costmodel.mega_price"),
    ("repro.costmodel.model", "CostModel", "evaluate_batch", "costmodel.batch"),
    ("repro.costmodel.model", "CostModel", "evaluate", "costmodel.scalar"),
    ("repro.costmodel.cache", "CachedOracle", "evaluate_many", "cache"),
    ("repro.costmodel.cache", "CachedOracle", "evaluate_many_grouped", "cache"),
    ("repro.costmodel.cache", "CachedOracle", "prewarm_grouped", "cache"),
    ("repro.costmodel.cache", "CachedOracle", "evaluate", "cache"),
    ("repro.core.surrogate", "Surrogate", "objective_and_gradient_batch", "core.fwd_bwd"),
    ("repro.core.surrogate", "Surrogate", "predict_log2_norm_edp", "core.predict"),
    ("repro.core.encoding", "MappingEncoder", "decode", "core.decode"),
    ("repro.core.encoding", "MappingEncoder", "encode_batch", "core.encode"),
    ("repro.core.pipeline", None, "generate_dataset", "core.dataset"),
    ("repro.core.pipeline", None, "train_surrogate", "core.fit"),
    ("repro.engine.engine", None, "make_searcher", "engine.prepare"),
    ("repro.engine.engine", "MappingEngine", "_finalize_search", "engine.finalize"),
    ("repro.engine.engine", None, "algorithmic_minimum", "engine.lower_bound"),
    ("repro.serve.server", None, "serve_batch", "serve.batch"),
    ("repro.serve.cohort", None, "run_cohort", "serve.cohort"),
    ("repro.serve.server", "MappingServer", "submit", "serve.submit"),
    ("repro.obs.trace", "Tracer", "start_trace", "obs.trace"),
    ("repro.obs.trace", "TraceHandle", "record", "obs.trace"),
    ("repro.obs.trace", "TraceHandle", "finish", "obs.trace"),
    ("repro.obs.trace", "TraceHandle", "open_span", "obs.trace"),
    ("repro.obs.trace", "TraceHandle", "close_span", "obs.trace"),
    ("repro.serve.metrics", "MetricsRegistry", "observe_latency", "obs.metrics"),
    ("repro.serve.metrics", "MetricsRegistry", "inc", "obs.metrics"),
    ("repro.obs.timeseries", "TimeseriesRing", "observe_latency", "obs.metrics"),
    ("repro.obs.timeseries", "MetricsSampler", "sample", "obs.sampler"),
    ("repro.cluster.router", None, "request_to_dict", "codec.encode"),
    ("repro.cluster.router", None, "response_from_dict", "codec.decode"),
    ("repro.cluster.router", "ClusterRouter", "submit", "cluster.submit"),
    ("repro.cluster.router", "ClusterRouter", "_dispatch", "cluster.dispatch"),
    ("repro.cluster.rpc", "ConnectionPool", "call", "cluster.rpc"),
)


def _tag_of_request(args: tuple) -> Optional[str]:
    request = args[1] if len(args) > 1 else args[0]
    return getattr(request, "tag", None)


def _tag_of_rpc(args: tuple) -> Optional[str]:
    payload = args[1]
    if payload.get("op") != "map":
        return None
    return payload["request"].get("tag")


#: Span context taken from the call's arguments, for spans that belong to
#: one request rather than to the ``serve_batch`` call around them.
_CONTEXT: Dict[str, Callable[[tuple], Optional[str]]] = {
    "serve.submit": _tag_of_request,
    "cluster.submit": _tag_of_request,
    "cluster.dispatch": _tag_of_request,
    "codec.encode": lambda args: getattr(args[0], "tag", None),
    "codec.decode": lambda args: args[0].get("tag"),
    "cluster.rpc": _tag_of_rpc,
}

#: Per-call facts kept beside the span: lane count and problems of a
#: megabatch (for its shape stats), the searcher behind an ask (for the
#: rounds a batch ran), the batch size of a serve_batch call.
_ATTRS: Dict[str, Callable[[tuple], Any]] = {
    "costmodel.mega_compile": lambda args: args[1],
    "search.ask": lambda args: id(args[0]),
    "serve.batch": lambda args: len(args[1]),
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "ctx", "attr")

    def __init__(self, sid, name, start, end, parent, ctx, attr) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.ctx = ctx
        self.attr = attr

    @property
    def duration(self) -> float:
        return self.end - self.start


class Ledger:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._batches = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: False routes every wrapper straight to the wrapped callable.
        #: Only the ``serve_batch`` wrapper needs it: the server binds its
        #: runner at construction, so that wrapper outlives ``uninstall``.
        self.active = False

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of ``LAYER_SPANS`` (idempotent per run)."""
        if self._patches:
            return
        for module_name, owner_name, attr, span in LAYER_SPANS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        context = _CONTEXT.get(name)
        attr_of = _ATTRS.get(name)
        is_batch = name == "serve.batch"
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.ctx = None
            sid = next(ids)
            parent = stack[-1] if stack else None
            outer_ctx = local.ctx
            if is_batch:
                local.ctx = f"batch:{next(ledger._batches)}"
            ctx = local.ctx
            if context is not None:
                ctx = context(args) or ctx
            attr = attr_of(args) if attr_of is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.ctx = outer_ctx
                spans.append(Span(sid, name, start, end, parent, ctx, attr))

        return wrapper

    # -- analysis -------------------------------------------------------

    def window(self, start: float, end: float) -> List[Span]:
        """Spans that started inside ``[start, end]``."""
        return [span for span in self.spans if start <= span.start <= end]

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Dump every span (and ``extra``) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["spans"] = [
            {
                "id": span.sid,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "ctx": span.ctx,
            }
            for span in self.spans
        ]
        path.write_text(json.dumps(payload))
