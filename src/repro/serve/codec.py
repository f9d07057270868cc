"""JSON codecs for serving traffic: problems, requests, responses.

The HTTP gateway, the load generator, and remote clients all speak one wire
format, built from the value types' own ``to_dict``/``from_dict`` codecs
(:meth:`Mapping.to_dict`, :meth:`SearchResult.to_dict`,
:meth:`CostStats.to_dict`, :meth:`MappingResponse.to_dict`).  This module
adds the pieces those types don't carry themselves — the
:class:`~repro.workloads.problem.Problem` codec, the
:class:`~repro.engine.MappingRequest` envelope and the decode of a whole
map call (:func:`map_call_from_dict`, which the HTTP gateway and every
cluster shard run) — plus :func:`request_key`, the identity the server
uses to collapse duplicate in-flight requests.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Hashable, Mapping as MappingType, NamedTuple, Optional

from repro.costmodel.cache import problem_key
from repro.engine.engine import MappingRequest, MappingResponse
from repro.engine.registry import resolve_searcher
from repro.serve.batcher import PRIORITY_NAMES, Priority
from repro.workloads.problem import Dimension, Problem, TensorSpec


class BadRequest(ValueError):
    """A map call refused at the door: its payload does not decode into a
    request a registered searcher can serve."""


def problem_to_dict(problem: Problem) -> Dict[str, Any]:
    """JSON-compatible dict (inverse of :func:`problem_from_dict`)."""
    return {
        "name": problem.name,
        "algorithm": problem.algorithm,
        "dims": [[d.name, d.bound] for d in problem.dims],
        "tensors": [
            {
                "name": t.name,
                "axes": [list(axis) for axis in t.axes],
                "is_output": t.is_output,
            }
            for t in problem.tensors
        ],
        "ops_per_point": problem.ops_per_point,
        "extra": dict(problem.extra),
    }


def problem_from_dict(payload: MappingType[str, Any]) -> Problem:
    """Rebuild a problem (revalidates dimension/tensor invariants)."""
    return Problem(
        name=str(payload["name"]),
        algorithm=str(payload["algorithm"]),
        dims=tuple(
            Dimension(str(name), int(bound)) for name, bound in payload["dims"]
        ),
        tensors=tuple(
            TensorSpec(
                name=str(t["name"]),
                axes=tuple(tuple(str(d) for d in axis) for axis in t["axes"]),
                is_output=bool(t.get("is_output", False)),
            )
            for t in payload["tensors"]
        ),
        ops_per_point=int(payload.get("ops_per_point", 1)),
        extra={str(k): int(v) for k, v in payload.get("extra", {}).items()},
    )


def request_to_dict(request: MappingRequest) -> Dict[str, Any]:
    """JSON-compatible dict (inverse of :func:`request_from_dict`).

    ``searcher_config`` must be JSON-serializable; requests carrying live
    objects (an injected surrogate, a custom oracle) are in-process-only
    and raise here rather than silently dropping fields on the wire.
    """
    config = dict(request.searcher_config)
    json.dumps(config)  # raises TypeError for non-wire-safe configs
    return {
        "problem": problem_to_dict(request.problem),
        "searcher": request.searcher,
        "iterations": request.iterations,
        "seed": request.seed,
        "searcher_config": config,
        "tag": request.tag,
    }


#: A request's wire fields: the keys :func:`request_to_dict` writes.
_REQUEST_FIELDS = frozenset(f.name for f in dataclasses.fields(MappingRequest))


def request_from_dict(payload: MappingType[str, Any]) -> MappingRequest:
    """Rebuild a request (revalidates via ``MappingRequest.__post_init__``).

    Raises ``ValueError`` for a key outside the wire fields, so a client
    that sends a field this server does not honour is refused rather than
    served a different search.
    """
    problem = problem_from_dict(payload["problem"])
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise ValueError(f"unknown request fields: {', '.join(unknown)}")
    seed = payload.get("seed")
    return MappingRequest(
        problem=problem,
        searcher=str(payload.get("searcher", "gradient")),
        iterations=int(payload.get("iterations", 500)),
        seed=None if seed is None else int(seed),
        searcher_config=dict(payload.get("searcher_config", {})),
        tag=str(payload.get("tag", "")),
    )


def response_to_dict(
    response: MappingResponse, include_trace: bool = False
) -> Dict[str, Any]:
    """Alias of :meth:`MappingResponse.to_dict` for codec symmetry."""
    return response.to_dict(include_trace=include_trace)


def response_from_dict(payload: MappingType[str, Any]) -> MappingResponse:
    """Alias of :meth:`MappingResponse.from_dict` for codec symmetry."""
    return MappingResponse.from_dict(payload)


def trace_to_dict(
    trace_id: str, parent_span: Optional[str] = None
) -> Dict[str, Any]:
    """Trace-context header for an RPC payload (router -> shard).

    The callee adopts ``trace_id`` and parents its root span under
    ``parent_span``, so the merged tree reads as one request.
    """
    payload: Dict[str, Any] = {"trace_id": str(trace_id)}
    if parent_span:
        payload["parent_span"] = str(parent_span)
    return payload


def trace_from_dict(
    payload: Optional[MappingType[str, Any]]
) -> Optional[tuple]:
    """Decode a trace-context header into the ``(trace_id, parent_span)``
    pair :meth:`MappingServer.submit` takes as ``trace_parent`` (``None``
    when the caller sent no usable context)."""
    if not isinstance(payload, MappingType):
        return None
    trace_id = str(payload.get("trace_id", ""))
    if not trace_id:
        return None
    parent_span = payload.get("parent_span")
    return (trace_id, "" if parent_span is None else str(parent_span))


class MapCall(NamedTuple):
    """A decoded map call."""

    request: MappingRequest
    priority: Priority
    include_trace: bool
    #: ``(trace_id, parent_span)`` for :meth:`MappingServer.submit`'s
    #: ``trace_parent``, or ``None``.
    trace_parent: Optional[tuple]


_PRIORITY_BY_NAME = {name: lane for lane, name in PRIORITY_NAMES.items()}


def map_call_from_dict(payload: MappingType[str, Any]) -> MapCall:
    """Decode a map call ``{request, priority, include_trace, trace}``:
    the body of ``POST /v1/map`` and of the router's ``map`` RPC.

    Raises :class:`BadRequest` for a payload that does not decode, a
    priority name outside ``PRIORITY_NAMES`` or an unregistered searcher.
    """
    try:
        request = request_from_dict(payload["request"])
        resolve_searcher(request.searcher)
        priority = _PRIORITY_BY_NAME[
            str(payload.get("priority", PRIORITY_NAMES[Priority.NORMAL])).lower()
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"bad request: {exc}") from exc
    return MapCall(
        request,
        priority,
        bool(payload.get("include_trace", False)),
        trace_from_dict(payload.get("trace")),
    )


def request_key(request: MappingRequest) -> Optional[Hashable]:
    """Collapse identity for duplicate-request coalescing, or ``None``.

    Two requests share a key exactly when the engine is guaranteed to
    produce the same response for both (up to the opaque ``tag``, which is
    re-stamped per caller): same problem, same canonical searcher, same
    budget, same config, and an explicit seed.  Unseeded requests are not
    idempotent — their results depend on entropy — and configs that don't
    canonicalize through JSON (live objects) have no stable identity; both
    return ``None`` and are never collapsed.
    """
    if request.seed is None:
        return None
    try:
        config = json.dumps(dict(request.searcher_config), sort_keys=True)
    except (TypeError, ValueError):
        return None
    try:
        searcher = resolve_searcher(request.searcher)
    except KeyError:
        return None
    return (
        problem_key(request.problem),
        searcher,
        request.iterations,
        request.seed,
        config,
    )


__all__ = [
    "BadRequest",
    "MapCall",
    "map_call_from_dict",
    "problem_from_dict",
    "problem_to_dict",
    "request_from_dict",
    "request_key",
    "request_to_dict",
    "response_from_dict",
    "response_to_dict",
    "trace_from_dict",
    "trace_to_dict",
]
