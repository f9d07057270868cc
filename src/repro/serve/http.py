"""Stdlib JSON/HTTP gateway in front of a :class:`MappingServer`.

No web framework — ``http.server.ThreadingHTTPServer`` plus the
:mod:`repro.serve.codec` wire format is enough for a self-contained
serving endpoint:

* ``POST /v1/map`` — body ``{"request": {...}, "priority": "high"|"normal",
  "include_trace": bool}``; replies ``200 {"response": {...}}``.  Requests
  serialize via :func:`request_to_dict`, responses rebuild client-side via
  :meth:`MappingResponse.from_dict`.
* ``GET /v1/metrics`` (alias ``/metrics``) — the live metrics snapshot;
  ``?format=prom`` renders Prometheus text exposition instead of JSON.
* ``GET /v1/healthz`` (alias ``/healthz``) — liveness + queue depth.
* ``GET /v1/trace/<trace_id>`` — one request's span tree + stage breakdown.
* ``GET /v1/events`` — recent structured events (``?kind=`` filters —
  unknown kinds are a ``400`` carrying the ``KNOWN_KINDS`` catalog —
  ``?limit=`` truncates to the most recent N).
* ``GET /v1/timeseries`` — rolling per-window rates/latency digests
  (``?metric=rates.served`` projects one dotted path, ``?windows=N``
  keeps the newest N windows).
* ``GET /v1/slo`` — objectives, burn rates, error budgets, alert states.
* ``GET /v1/profile`` — collapsed profiler stacks + span-derived
  hotspot tables (``?limit=N`` caps the stack table).

Backpressure maps onto HTTP: :class:`ServerOverloaded` becomes ``429 Too
Many Requests`` with a ``Retry-After`` header, drain becomes ``503``,
malformed payloads become ``400`` with the validation error spelled out.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import events as obs_events
from repro.obs import prom
from repro.serve.batcher import Priority
from repro.serve.codec import request_from_dict
from repro.serve.server import MappingServer, ServerClosed, ServerOverloaded

#: Cap request bodies (a problem + config is a few KB; traces never upload).
MAX_BODY_BYTES = 4 * 1024 * 1024


class GatewayHandler(BaseHTTPRequestHandler):
    """One HTTP request → one server call.  Stateless; the server object
    hangs off the listener (``self.server.mapping_server``)."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def gateway(self) -> "Gateway":
        return self.server  # type: ignore[return-value]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.gateway.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parts = urlsplit(self.path)
        path = parts.path
        query = parse_qs(parts.query)
        server = self.gateway.mapping_server
        if path in ("/healthz", "/v1/healthz"):
            self._reply(200, server.health_snapshot())
        elif path in ("/metrics", "/v1/metrics"):
            snapshot = server.metrics_snapshot()
            if query.get("format", [""])[-1] == "prom":
                self._reply_text(200, prom.render_prometheus(snapshot))
            else:
                self._reply(200, snapshot)
        elif path.startswith("/v1/trace/"):
            trace_id = path[len("/v1/trace/"):]
            trace = server.trace_snapshot(trace_id)
            if trace is None:
                self._reply(
                    404, {"error": f"unknown or evicted trace {trace_id!r}"}
                )
            else:
                self._reply(200, trace)
        elif path in ("/events", "/v1/events"):
            kind = query.get("kind", [None])[-1]
            if kind is not None and kind not in obs_events.KNOWN_KINDS:
                # An unknown kind would filter to an empty list
                # indistinguishable from "no events" — reject it with the
                # catalog so typos surface immediately.
                self._reply(400, {
                    "error": f"unknown event kind {kind!r}",
                    "known_kinds": list(obs_events.KNOWN_KINDS),
                })
                return
            try:
                limit = _count_param(query, "limit")
            except ValueError:
                self._reply(400, {"error": "limit must be an integer"})
                return
            self._reply(200, {
                "events": server.events_snapshot(kind=kind, limit=limit)
            })
        elif path in ("/slo", "/v1/slo"):
            self._reply(200, server.slo_snapshot())
        elif path in ("/timeseries", "/v1/timeseries"):
            metric = query.get("metric", [None])[-1]
            try:
                windows = _count_param(query, "windows", "window")
            except ValueError:
                self._reply(400, {"error": "windows must be an integer"})
                return
            try:
                self._reply(200, server.timeseries_snapshot(
                    metric=metric, windows=windows
                ))
            except KeyError as exc:
                self._reply(400, {"error": str(exc).strip("'\"")})
        elif path in ("/profile", "/v1/profile"):
            try:
                limit = _count_param(query, "limit")
            except ValueError:
                self._reply(400, {"error": "limit must be an integer"})
                return
            self._reply(200, server.profile_snapshot(
                limit=50 if limit is None else limit
            ))
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path not in ("/map", "/v1/map"):
            # Keep-alive hygiene: consume the body we'll never parse, or
            # the next request on this connection reads it as garbage.
            self._drain_body()
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        payload, error = self._read_json()
        if error is not None:
            self._reply(400, {"error": error})
            return
        try:
            request = request_from_dict(payload["request"])
            priority = {
                "high": Priority.HIGH, "normal": Priority.NORMAL,
            }[str(payload.get("priority", "normal")).lower()]
            include_trace = bool(payload.get("include_trace", False))
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"bad request payload: {exc}"})
            return
        try:
            future = self.gateway.mapping_server.submit(request, priority=priority)
        except (KeyError, ValueError) as exc:
            # Admission validation (e.g. an unregistered searcher): the
            # client's mistake, not a server failure.
            self._reply(400, {"error": f"bad request: {exc}"})
            return
        except ServerOverloaded as exc:
            self._reply(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers=(("Retry-After", f"{max(1, round(exc.retry_after_s))}"),),
            )
            return
        except ServerClosed as exc:
            self._reply(503, {"error": str(exc)})
            return
        try:
            response = future.result(timeout=self.gateway.request_timeout_s)
        except ServerOverloaded as exc:
            # A fronted cluster router learns about a shard's overload only
            # when the dispatch future resolves; same verdict, same 429.
            self._reply(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers=(("Retry-After", f"{max(1, round(exc.retry_after_s))}"),),
            )
            return
        except ServerClosed as exc:
            self._reply(503, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 — search errors become 500s
            self._reply(500, {"error": f"{exc.__class__.__name__}: {exc}"})
            return
        self._reply(200, {"response": response.to_dict(include_trace=include_trace)})

    # ------------------------------------------------------------------

    def _content_length(self) -> Optional[int]:
        """Parsed Content-Length, or ``None`` when missing/malformed."""
        try:
            return int(self.headers.get("Content-Length", ""))
        except (TypeError, ValueError):
            return None

    def _drain_body(self) -> None:
        """Consume an unread request body so keep-alive framing survives."""
        length = self._content_length()
        if length is None or length > MAX_BODY_BYTES:
            # Unknowable or too big to drain safely; drop the pipe instead.
            self.close_connection = True
        elif length > 0:
            self.rfile.read(length)

    def _read_json(self) -> Tuple[Optional[dict], Optional[str]]:
        length = self._content_length()
        if length is None:
            self.close_connection = True  # framing unknowable past this point
            return None, "missing or malformed Content-Length"
        if length <= 0:
            return None, "missing request body"
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # unread body would poison keep-alive
            return None, f"body exceeds {MAX_BODY_BYTES} bytes"
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            return None, f"invalid JSON: {exc}"
        if not isinstance(payload, dict):
            return None, "payload must be a JSON object"
        return payload, None

    def _reply(self, status: int, payload: dict, headers: Tuple = ()) -> None:
        self._reply_text(status, json.dumps(payload), "application/json",
                         headers)

    def _reply_text(
        self, status: int, text: str, content_type: str = prom.CONTENT_TYPE,
        headers: Tuple = (),
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


def _count_param(query: dict, *names: str) -> Optional[int]:
    """The last value of the first of ``names`` present in ``query``,
    clamped to >= 0 (``None`` when absent; ``ValueError`` if not an int)."""
    for name in names:
        if name in query:
            return max(int(query[name][-1]), 0)
    return None


class Gateway(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`MappingServer` or
    :class:`~repro.cluster.router.ClusterRouter` (the same ``submit`` and
    view surface)."""

    daemon_threads = True
    #: ``SO_REUSEADDR``: a restarted shard/gateway must rebind its port
    #: immediately instead of dying on ``EADDRINUSE`` while the previous
    #: incarnation's sockets sit in TIME_WAIT.
    allow_reuse_address = True

    def __init__(
        self,
        mapping_server: MappingServer,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: Optional[float] = 300.0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), GatewayHandler)
        self.mapping_server = mapping_server
        self.request_timeout_s = request_timeout_s
        self.verbose = verbose

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_gateway(
    mapping_server: MappingServer,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout_s: Optional[float] = 300.0,
    verbose: bool = False,
) -> Gateway:
    """Start a gateway on a background thread; returns the listener.

    ``port=0`` binds an ephemeral port (tests); read the bound address
    from ``gateway.address``.  Stop with ``gateway.shutdown()`` (the HTTP
    listener) and then ``mapping_server.shutdown()`` (the serve loop).
    """
    gateway = Gateway(
        mapping_server,
        host=host,
        port=port,
        request_timeout_s=request_timeout_s,
        verbose=verbose,
    )
    # repro: ignore[RPR004] -- serve_forever exits on gateway.shutdown(); the daemon thread needs no join handle
    thread = threading.Thread(
        # Tight poll interval keeps gateway.shutdown() prompt.
        target=lambda: gateway.serve_forever(poll_interval=0.05),
        name="serve-gateway",
        daemon=True,
    )
    thread.start()
    return gateway


def install_signal_drain(
    signals: Tuple[int, ...] = None,
) -> threading.Event:
    """Route ``SIGTERM``/``SIGINT`` into an event instead of a hard exit.

    Returns an event that is set when any of ``signals`` (default: SIGTERM
    and SIGINT) arrives.  Serving entry points wait on it in their main
    loop and then run the graceful sequence — ``gateway.shutdown()``, then
    ``server.drain()`` — so a supervisor restarting a shard (or ^C at the
    terminal) never drops in-flight requests.  Must be called from the
    main thread (a CPython signal-handling constraint); handlers for the
    chosen signals are replaced.
    """
    import signal as _signal

    if signals is None:
        signals = (_signal.SIGTERM, _signal.SIGINT)
    stop = threading.Event()

    def handler(signum, frame) -> None:  # noqa: ARG001 — signal API
        stop.set()

    for signum in signals:
        _signal.signal(signum, handler)
    return stop


__all__ = [
    "Gateway",
    "GatewayHandler",
    "MAX_BODY_BYTES",
    "install_signal_drain",
    "start_gateway",
]
