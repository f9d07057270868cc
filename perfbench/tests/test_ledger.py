"""The traced run's span recording, per-layer metrics and metric catalog."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import MappingEngine, MappingRequest
from repro.costmodel.accelerator import default_accelerator
from repro.mapspace.space import MapSpace
from repro.serve import server as serve_server
from repro.workloads import problem_by_name

import catalog
from layers import layer_metrics
from ledger import LAYER_SPANS, Ledger, Span
from loop import Outcome, Phase
from run import OVERHEAD_METRICS

ROOT = Path(__file__).resolve().parents[2]


def test_install_wraps_and_uninstall_restores():
    sample, serve_batch = MapSpace.sample, serve_server.serve_batch
    ledger = Ledger()
    ledger.install()
    try:
        assert MapSpace.sample is not sample
        assert serve_server.serve_batch is not serve_batch
    finally:
        ledger.uninstall()
    assert MapSpace.sample is sample
    assert serve_server.serve_batch is serve_batch
    assert len({entry[:3] for entry in LAYER_SPANS}) == len(LAYER_SPANS)


def test_spans_nest_and_self_times_add_up():
    engine = MappingEngine(default_accelerator())
    request = MappingRequest(problem_by_name("ResNet_Conv4"), searcher="annealing",
                             iterations=16, seed=3)
    expected = engine.map(request)
    ledger = Ledger()
    ledger.install()
    try:
        response = engine.map(request)
    finally:
        ledger.uninstall()
    assert response.mapping == expected.mapping  # wrappers change nothing
    spans = {span.sid: span for span in ledger.spans}
    names = {span.name for span in spans.values()}
    assert {"mapspace.neighbor", "search.ask", "search.tell", "cache",
            "engine.prepare", "engine.finalize"} <= names
    children = {}
    for span in spans.values():
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            children.setdefault(span.parent, []).append(span)
    for sid, kids in children.items():
        assert sum(k.duration for k in kids) <= spans[sid].duration


@pytest.mark.parametrize("rpc_wrapped, uncovered", [(True, 0.2), (False, 0.8)])
def test_unwrapped_router_work_counts_as_uncovered_latency(rpc_wrapped, uncovered):
    """A 10 ms routed request: 1 ms submit, 1 ms executor wait, an 8 ms
    dispatch of which the RPC takes 6 ms.  The dispatch's own 2 ms are
    uncovered; an RPC left unwrapped adds its 6 ms to them."""
    ledger = Ledger()
    ledger.spans += [
        Span(0, "cluster.submit", 0.000, 0.001, None, "t", None),
        Span(1, "cluster.dispatch", 0.002, 0.010, None, "t", None),
    ]
    if rpc_wrapped:
        ledger.spans.append(Span(2, "cluster.rpc", 0.003, 0.009, 1, "t", None))
    response = SimpleNamespace(stages={}, n_evaluations=1, to_dict=dict)
    outcome = Outcome(index=0, request=SimpleNamespace(tag="t"), submitted=0.0,
                      done=0.010, response=response)
    phase = Phase(started=0.0, ended=0.010, outcomes=[outcome])
    metrics = layer_metrics(ledger, phase, {}, {}, (0.0, 0.0))
    assert metrics["trace.latency_uncovered_frac"] == pytest.approx(uncovered)
    assert metrics["cluster.queue_wait_ms"] == pytest.approx(1.0)


def test_catalog_defines_every_metric_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = catalog.load()
    assert [m["name"] for m in bench["end_to_end"]] == list(entries["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == list(entries["per_layer"])
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in entries["per_layer"].values():
        for e2e, workload in entry["moves"]:
            assert e2e in entries["end_to_end"] and workload in workloads
    empty = Phase(started=0.0, ended=1.0, outcomes=[])
    printed = set(layer_metrics(Ledger(), empty, {}, {}, (0.0, 0.0)))
    printed |= set(OVERHEAD_METRICS.values())
    assert printed == set(entries["per_layer"])
