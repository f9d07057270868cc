"""``repro.serve`` — the high-throughput traffic layer over the engine.

PRs 1–3 built a batch-loving substrate (``MappingEngine``, ask/tell
searchers, vectorized oracles); this package is the scheduling layer that
lets *independent* callers benefit from it.  Requests enter one at a time
(``MappingServer.submit`` in process, ``POST /v1/map`` over HTTP) and are
coalesced into the wide operations the backend is fastest at:

* :mod:`repro.serve.batcher` — dynamic micro-batching: size-or-deadline
  flushing of one cross-problem request queue, with a high-priority
  lane.
* :mod:`repro.serve.cohort` — lockstep evaluation cohorts: many searches'
  per-round candidate batches — over any mix of problems — unioned into
  one prewarmed megabatched oracle query, with bit-identical per-request
  results.
* :mod:`repro.serve.server` — admission control and backpressure,
  duplicate-request collapsing, a response cache, the worker pool, and
  graceful drain.
* :mod:`repro.serve.metrics` — throughput, queue depth, batch-size
  histogram, p50/p95/p99 latency (the 1% log-bucket sketch), cache
  counters — one ``snapshot()`` dict.
* :mod:`repro.serve.codec` / :mod:`repro.serve.http` — the JSON wire
  format and the stdlib ``http.server`` gateway
  (``python -m repro.serve`` runs it).

Quickstart::

    from repro.engine import MappingEngine, MappingRequest
    from repro.serve import MappingServer, ServeConfig

    engine = MappingEngine()
    with MappingServer(engine, ServeConfig(max_batch=16)) as server:
        futures = [server.submit(MappingRequest(problem, searcher="annealing",
                                                iterations=200, seed=s))
                   for s in range(64)]
        responses = [f.result() for f in futures]
        print(server.metrics_snapshot())

End-to-end HTTP tests: ``tests/test_serve_http.py``.
"""

from repro.serve.batcher import Batch, MicroBatcher, PendingRequest, Priority
from repro.serve.codec import (
    problem_from_dict,
    problem_to_dict,
    request_from_dict,
    request_key,
    request_to_dict,
    response_from_dict,
    response_to_dict,
)
from repro.serve.cohort import serve_batch
from repro.serve.http import Gateway, start_gateway
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import (
    MappingServer,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
)

__all__ = [
    "Batch",
    "Gateway",
    "MappingServer",
    "MetricsRegistry",
    "MicroBatcher",
    "PendingRequest",
    "Priority",
    "ServeConfig",
    "ServerClosed",
    "ServerOverloaded",
    "problem_from_dict",
    "problem_to_dict",
    "request_from_dict",
    "request_key",
    "request_to_dict",
    "response_from_dict",
    "response_to_dict",
    "serve_batch",
    "start_gateway",
]
