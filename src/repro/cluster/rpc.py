"""Length-prefixed socket RPC riding the :mod:`repro.serve.codec` wire format.

The router and its shards speak JSON messages over plain TCP, framed as a
4-byte big-endian length followed by the UTF-8 JSON body.  No HTTP parsing
on the inter-process hop — the gateway already did that once; inside the
cluster a frame is one ``recv`` loop and one ``json.loads``.

* :func:`send_message` / :func:`recv_message` — one frame each way.
  ``recv_message`` raises :class:`ConnectionClosed` on clean EOF (peer
  finished) and :class:`ProtocolError` on garbage (bad length, oversized
  frame, invalid JSON) — the latter means the socket can't be trusted for
  framing anymore and must be dropped.
* :class:`RpcClient` — one persistent connection; ``call`` is one
  request/response round trip, serialized by a lock so a connection can be
  shared.  The router pools several per shard
  (:class:`ConnectionPool`) for concurrency.
* :class:`RpcServer` — a threaded accept loop: one daemon thread per
  connection, frames dispatched to a ``handler(payload) -> payload``
  callable, keep-alive until the peer closes.  Handler exceptions become
  :func:`repro.serve.server.failure_reply` replies, never connection
  drops.

Payloads are dicts of JSON-compatible values; requests/responses cross as
:func:`repro.serve.codec.request_to_dict` / ``MappingResponse.to_dict``
output, so the cluster wire format *is* the public wire format.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Callable, Dict, List, Optional

from repro.serve.server import failure_reply

#: Frame size cap: a response with a full trace is a few MB; anything
#: bigger is a framing error, not a payload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ConnectionClosed(ConnectionError):
    """The peer closed the connection at a frame boundary (clean EOF)."""


class ProtocolError(RuntimeError):
    """The stream can no longer be framed (bad length/JSON); drop the socket."""


def send_message(sock: socket.socket, payload: Dict) -> None:
    """Send one frame: 4-byte big-endian length + UTF-8 JSON body."""
    body = json.dumps(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send {len(body)}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"connection died mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Dict:
    """Receive one frame; raises :class:`ConnectionClosed` on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length) if length else b""
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload)}")
    return payload


class RpcClient:
    """One persistent connection to an RPC server; thread-safe ``call``."""

    def __init__(
        self, host: str, port: int, connect_timeout_s: float = 5.0
    ) -> None:
        self.address = (host, port)
        self._sock = socket.create_connection(
            self.address, timeout=connect_timeout_s
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()

    def call(self, payload: Dict, timeout_s: Optional[float] = None) -> Dict:
        """One request/response round trip (serialized per connection)."""
        with self._lock:
            self._sock.settimeout(timeout_s)
            # repro: ignore[RPR002] -- the lock exists to serialize this shared connection; blocking inside it is the contract
            send_message(self._sock, payload)
            # repro: ignore[RPR002] -- same contract as the send above; settimeout bounds the stall
            return recv_message(self._sock)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ConnectionPool:
    """A small pool of :class:`RpcClient` connections to one address.

    ``acquire`` hands out an idle connection or dials a new one (up to
    ``maxsize`` retained); ``release(reusable=False)`` discards a
    connection whose stream can no longer be trusted.  ``close`` drops
    everything — after a shard respawns on a new port, the router swaps in
    a fresh pool.
    """

    def __init__(
        self,
        host: str,
        port: int,
        maxsize: int = 8,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.address = (host, port)
        self.maxsize = maxsize
        self.connect_timeout_s = connect_timeout_s
        self._idle: List[RpcClient] = []
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self) -> RpcClient:
        with self._lock:
            if self._closed:
                raise ConnectionError(f"pool for {self.address} is closed")
            if self._idle:
                return self._idle.pop()
        return RpcClient(*self.address, connect_timeout_s=self.connect_timeout_s)

    def release(self, client: RpcClient, reusable: bool = True) -> None:
        with self._lock:
            if reusable and not self._closed and len(self._idle) < self.maxsize:
                self._idle.append(client)
                return
        client.close()

    def call(self, payload: Dict, timeout_s: Optional[float] = None) -> Dict:
        """Round trip on a pooled connection; broken sockets are discarded."""
        client = self.acquire()
        try:
            reply = client.call(payload, timeout_s=timeout_s)
        except BaseException:
            self.release(client, reusable=False)
            raise
        self.release(client)
        return reply

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()


class RpcServer:
    """Threaded accept loop dispatching frames to one handler callable."""

    def __init__(
        self,
        handler: Callable[[Dict], Dict],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # SO_REUSEADDR: a respawned shard must rebind immediately, not
        # fight TIME_WAIT sockets from its previous incarnation.
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.settimeout(0.2)  # bounds stop latency
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept until :meth:`stop`; runs on the caller's thread."""
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us during stop
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)
            self._threads = [t for t in self._threads if t.is_alive()]

    def start(self) -> "RpcServer":
        """Run :meth:`serve_forever` on a background daemon thread."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name=f"rpc-accept-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and close the listener (in-flight frames finish)."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    # ------------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while not self._stop.is_set():
                try:
                    request = recv_message(conn)
                except (ConnectionClosed, ProtocolError, OSError):
                    return
                try:
                    reply = self.handler(request)
                except Exception as exc:  # noqa: BLE001 — handler bug ≠ dead pipe
                    reply = failure_reply(exc)
                try:
                    send_message(conn, reply)
                except (ProtocolError, OSError):
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass


__all__ = [
    "ConnectionClosed",
    "ConnectionPool",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RpcClient",
    "RpcServer",
    "recv_message",
    "send_message",
]
