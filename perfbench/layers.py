"""Per-layer metrics of a traced phase, from its spans and counters.

Times are self times (a span's duration minus its children's) summed over
the phase and divided by the requests the phase completed, unless the
catalog says otherwise: ``*_us`` entry-point timings (``serve.submit_us``,
``cluster.submit_us``, ``codec.*_us``) are means per call, ``*_s``
set-up timings are totals over the traced set-up, counts are totals over
the phase, and ratios are what they say.  ``catalog.json`` names the
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from ledger import Ledger, Span

#: Response stages (the program's own per-request breakdown) reported
#: as per-request means.
STAGES = {
    "serve.admission_wait_ms": "admission_wait_s",
    "serve.batch_wait_ms": "batch_wait_s",
    "serve.prewarm_ms": "prewarm_s",
    "serve.search_rounds_ms": "search_rounds_s",
    "engine.finalize_ms": "finalize_s",
    "cluster.router_overhead_ms": "router_overhead_s",
}

#: Span name -> per-request self-time metric (ms unless named ``_us``).
SELF_TIME = {
    "mapspace.sample_ms": "mapspace.sample",
    "mapspace.project_ms": "mapspace.project",
    "mapspace.neighbor_ms": "mapspace.neighbor",
    "search.ask_self_ms": "search.ask",
    "search.tell_ms": "search.tell",
    "search.reset_ms": "search.reset",
    "search.budget_ms": "search.budget",
    "costmodel.mega_compile_ms": "costmodel.mega_compile",
    "costmodel.mega_price_ms": "costmodel.mega_price",
    "costmodel.batch_ms": "costmodel.batch",
    "costmodel.scalar_ms": "costmodel.scalar",
    "cache.self_ms": "cache",
    "core.fwd_bwd_ms": "core.fwd_bwd",
    "core.predict_ms": "core.predict",
    "core.decode_ms": "core.decode",
    "core.encode_ms": "core.encode",
    "engine.prepare_ms": "engine.prepare",
    "engine.finalize_self_ms": "engine.finalize",
    "serve.cohort_self_ms": "serve.cohort",
    "serve.batch_self_ms": "serve.batch",
    "obs.trace_us": "obs.trace",
    "obs.metrics_us": "obs.metrics",
    "obs.sampler_ms": "obs.sampler",
}

#: Entry points timed per call (inclusive), in microseconds.
PER_CALL_US = {
    "serve.submit_us": "serve.submit",
    "cluster.submit_us": "cluster.submit",
    "codec.encode_us": "codec.encode",
    "codec.decode_us": "codec.decode",
}

#: Counter deltas over the phase.
COUNTS = {
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "cache.prewarmed": "cache.prewarmed",
    "serve.rejected": "serve.rejected",
    "serve.errors": "serve.errors",
    "cluster.failovers": "router.failovers",
    "cluster.rpc_failures": "router.rpc_failures",
}


def _scale(name: str) -> float:
    return 1e6 if name.endswith("_us") else 1e3


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    ledger: Ledger,
    phase,
    before: Dict[str, float],
    after: Dict[str, float],
    setup_window: Tuple[float, float],
) -> Dict[str, float]:
    from repro.costmodel.batch import megabatch_shape_stats

    spans = ledger.window(phase.started, phase.ended)
    setup_spans = ledger.window(*setup_window)
    child_time: Dict[int, float] = defaultdict(float)
    for span in ledger.spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def own(span: Span) -> float:
        return span.duration - child_time[span.sid]

    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    served = phase.served
    n = max(len(served), 1)
    metrics: Dict[str, float] = {}

    for metric, name in SELF_TIME.items():
        metrics[metric] = sum(own(s) for s in by_name[name]) / n * _scale(metric)
    for metric, name in PER_CALL_US.items():
        metrics[metric] = _mean([s.duration for s in by_name[name]]) * 1e6
    for metric, stage in STAGES.items():
        metrics[metric] = sum(
            o.response.stages.get(stage, 0.0) for o in served
        ) / n * 1e3
    for metric, counter in COUNTS.items():
        metrics[metric] = after.get(counter, 0) - before.get(counter, 0)

    metrics["mapspace.setup_s"] = sum(
        own(s) for s in setup_spans if s.name.startswith("mapspace.")
    )
    metrics["core.dataset_s"] = sum(
        s.duration for s in setup_spans if s.name == "core.dataset"
    )
    metrics["core.fit_s"] = sum(
        s.duration for s in setup_spans if s.name == "core.fit"
    )
    metrics["search.evals_per_req"] = _mean([o.response.n_evaluations for o in served])

    compiles = by_name["costmodel.mega_compile"]
    lanes = [len(s.attr) for s in compiles]
    metrics["costmodel.mega_calls"] = len(compiles)
    metrics["costmodel.mega_lanes_per_call"] = _mean(lanes)
    metrics["costmodel.pad_waste"] = (
        sum(
            len(s.attr) * megabatch_shape_stats(s.attr)["padding_waste_ratio"]
            for s in compiles
        ) / sum(lanes)
        if compiles else 0.0
    )
    queries = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_rate"] = metrics["cache.hits"] / queries if queries else 0.0
    metrics["engine.lower_bound_calls"] = len(by_name["engine.lower_bound"])

    submitted = after.get("serve.submitted", 0) - before.get("serve.submitted", 0)
    for metric, counter in (("serve.response_cache_hit_frac", "serve.response_cache_hits"),
                            ("serve.collapsed_frac", "serve.collapsed")):
        delta = after.get(counter, 0) - before.get(counter, 0)
        metrics[metric] = delta / submitted if submitted else 0.0

    metrics.update(_batch_metrics(by_name, n))
    wall = metrics["trace.serve_batch_wall_ms"]
    metrics["trace.serve_batch_uncovered_frac"] = (
        metrics["serve.batch_self_ms"] / wall if wall else 0.0
    )
    metrics.update(_routed_metrics(by_name, served, own))
    metrics["codec.reply_kb"] = _mean([
        len(json.dumps(o.response.to_dict())) / 1024.0 for o in served
    ])
    metrics["trace.spans"] = len(spans)
    metrics["trace.requests"] = len(served)
    return metrics


def _batch_metrics(by_name: Dict[str, List[Span]], n: int) -> Dict[str, float]:
    """serve_batch shape, lockstep rounds, release wait, coverage."""
    batches = by_name["serve.batch"]
    batch_end = {s.ctx: s.end for s in batches}
    asks: Dict[object, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for span in by_name["search.ask"]:
        asks[span.ctx][span.attr] += 1
    rounds = [max(per_searcher.values()) for ctx, per_searcher in asks.items()
              if ctx in batch_end]
    release = [
        batch_end[s.ctx] - s.end
        for s in by_name["engine.finalize"]
        if s.ctx in batch_end
    ]
    # ``serve.batch_self_ms`` is the part of serve_batch no layer span
    # covers; its share of this wall time checks the ledger's coverage.
    wall = sum(s.duration for s in batches)
    return {
        "serve.batch_size_mean": _mean([s.attr for s in batches]),
        "serve.rounds_per_batch": _mean(rounds),
        "serve.release_wait_ms": sum(release) / n * 1e3,
        "trace.serve_batch_wall_ms": wall / n * 1e3,
    }


def _routed_metrics(
    by_name: Dict[str, List[Span]], served, own: Callable[[Span], float]
) -> Dict[str, float]:
    """Per-request router accounting, joined on the request tag.

    The uncovered remainder of a request's latency is what lies outside
    the router's submit span, its executor wait and the layer spans inside
    its dispatch: the dispatch's self time counts as uncovered, so router
    work that no layer wrapper covers shows up in it.
    """
    def by_tag(name: str) -> Dict[str, Span]:
        return {s.ctx: s for s in by_name[name] if s.ctx is not None}

    submits, dispatches = by_tag("cluster.submit"), by_tag("cluster.dispatch")
    rpcs, encodes, decodes = by_tag("cluster.rpc"), by_tag("codec.encode"), by_tag("codec.decode")
    queue_wait: List[float] = []
    router_wait: List[float] = []
    uncovered = latency_total = 0.0
    rpc_total = 0.0
    for outcome in served:
        tag = outcome.request.tag
        submit, dispatch = submits.get(tag), dispatches.get(tag)
        if submit is None or dispatch is None:
            continue
        rpc = rpcs[tag].duration if tag in rpcs else 0.0
        codec = sum(d[tag].duration for d in (encodes, decodes) if tag in d)
        rpc_total += rpc
        queue_wait.append(dispatch.start - submit.end)
        router_wait.append(outcome.latency - rpc - codec)
        latency_total += outcome.latency
        uncovered += outcome.latency - submit.duration - (
            dispatch.start - submit.end) - (dispatch.duration - own(dispatch))
    n = max(len(served), 1)
    return {
        "cluster.rpc_ms": rpc_total / n * 1e3,
        "cluster.queue_wait_ms": _mean(queue_wait) * 1e3,
        "cluster.router_wait_ms": _mean(router_wait) * 1e3,
        "trace.latency_uncovered_frac": uncovered / latency_total
        if latency_total else 0.0,
    }
