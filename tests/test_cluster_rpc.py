"""Length-prefixed socket RPC: framing, error taxonomy, pooling, server."""

import socket
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster.rpc import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    ConnectionPool,
    ProtocolError,
    RpcClient,
    RpcServer,
    recv_message,
    send_message,
)
from repro.serve.codec import BadRequest
from repro.serve.server import ServerClosed, ServerOverloaded


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "ping", "nested": {"x": [1, 2, 3]}})
            assert recv_message(b) == {"op": "ping", "nested": {"x": [1, 2, 3]}}
        finally:
            a.close()
            b.close()

    def test_multiple_frames_keep_boundaries(self):
        a, b = socket.socketpair()
        try:
            for i in range(5):
                send_message(a, {"i": i})
            for i in range(5):
                assert recv_message(b) == {"i": i}
        finally:
            a.close()
            b.close()

    def test_clean_eof_raises_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_message(b)
        finally:
            b.close()

    def test_death_mid_frame_is_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"only-part")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_invalid_json_is_protocol_error(self):
        a, b = socket.socketpair()
        try:
            body = b"not json at all"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="object"):
                recv_message(b)
        finally:
            a.close()
            b.close()


@pytest.fixture()
def echo_server():
    def handler(payload):
        if payload.get("op") == "boom":
            raise ValueError("handler exploded")
        if payload.get("op") == "busy":
            raise ServerOverloaded(2.0, 7)
        if payload.get("op") == "refuse":
            raise BadRequest("bad request: 'problem'")
        if payload.get("op") == "drain":
            raise ServerClosed("server is draining")
        return {"ok": True, "echo": payload}

    server = RpcServer(handler).start()
    yield server
    server.stop()


class TestClientServer:
    def test_call_round_trip(self, echo_server):
        with RpcClient(echo_server.host, echo_server.port) as client:
            reply = client.call({"op": "ping", "n": 7})
            assert reply == {"ok": True, "echo": {"op": "ping", "n": 7}}

    def test_keep_alive_many_calls_one_connection(self, echo_server):
        with RpcClient(echo_server.host, echo_server.port) as client:
            for i in range(20):
                assert client.call({"i": i})["echo"]["i"] == i

    def test_handler_exception_becomes_error_reply(self, echo_server):
        with RpcClient(echo_server.host, echo_server.port) as client:
            reply = client.call({"op": "boom"})
            assert reply["ok"] is False
            assert reply["kind"] == "error"
            assert "ValueError" in reply["error"]
            # The connection survives a handler error.
            assert client.call({"op": "ping"})["ok"] is True

    @pytest.mark.parametrize(
        "op, kind, error",
        [
            ("busy", "overloaded",
             "server overloaded (7 requests in flight); retry after 2.00s"),
            ("refuse", "bad_request", "bad request: 'problem'"),
            ("drain", "closed", "server is draining"),
        ],
        ids=["overloaded", "bad_request", "closed"],
    )
    def test_handler_failure_kind_reaches_the_reply(self, echo_server, op,
                                                    kind, error):
        with RpcClient(echo_server.host, echo_server.port) as client:
            reply = client.call({"op": op})
        assert (reply["ok"], reply["kind"], reply["error"]) == (False, kind,
                                                                error)
        if kind == "overloaded":
            assert (reply["retry_after_s"], reply["depth"]) == (2.0, 7)
        else:
            assert "retry_after_s" not in reply and "depth" not in reply

    def test_concurrent_clients(self, echo_server):
        def roundtrip(i):
            with RpcClient(echo_server.host, echo_server.port) as client:
                return client.call({"i": i})["echo"]["i"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(roundtrip, range(32))) == list(range(32))

    def test_shared_client_is_thread_safe(self, echo_server):
        client = RpcClient(echo_server.host, echo_server.port)
        results = []
        lock = threading.Lock()

        def worker(i):
            reply = client.call({"i": i})
            with lock:
                results.append(reply["echo"]["i"])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client.close()
        assert sorted(results) == list(range(16))

    def test_stop_unbinds_port(self, echo_server):
        port = echo_server.port
        echo_server.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)


class TestConnectionPool:
    def test_reuses_idle_connections(self, echo_server):
        pool = ConnectionPool(echo_server.host, echo_server.port, maxsize=4)
        first = pool.acquire()
        pool.release(first)
        again = pool.acquire()
        assert again is first
        pool.release(again)
        pool.close()

    def test_call_discards_broken_connections(self, echo_server):
        pool = ConnectionPool(echo_server.host, echo_server.port)
        broken = pool.acquire()
        broken.close()  # simulate a dead shard's half of the socket
        pool.release(broken)  # back to idle, now poisoned
        with pytest.raises((ConnectionError, OSError, RuntimeError)):
            pool.call({"op": "ping"})
        # A fresh call dials a new connection and succeeds.
        assert pool.call({"op": "ping"})["ok"] is True
        pool.close()

    def test_closed_pool_refuses(self, echo_server):
        pool = ConnectionPool(echo_server.host, echo_server.port)
        pool.close()
        with pytest.raises(ConnectionError):
            pool.acquire()

    def test_bounded_idle_retention(self, echo_server):
        pool = ConnectionPool(echo_server.host, echo_server.port, maxsize=2)
        clients = [pool.acquire() for _ in range(4)]
        for client in clients:
            pool.release(client)
        assert len(pool._idle) == 2
        pool.close()
