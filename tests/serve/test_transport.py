"""Transport contract: one-write NODELAY responses, request framing, Server-Timing.

Every response must leave the server in a single ``wfile.write`` on a
``TCP_NODELAY`` socket — a header write followed by a small body write
is what Nagle + delayed ACK stall by ~40 ms.  Request framing is checked
with raw sockets, because only a raw socket can send what
``http.client`` never would: a negative or non-numeric
``Content-Length``, or a body on a path nobody reads.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.reqtrace import WATERFALL_STAGES, parse_server_timing
from repro.serve import ModelRegistry, ReproServer, ServeClient, ServeConfig, run_load
from repro.serve.codec import graph_to_json
from repro.serve.http import MAX_BODY_BYTES

pytestmark = pytest.mark.serve


class _CountingWriter:
    """Wraps a handler's ``wfile``; records the size of every write."""

    def __init__(self, inner, writes: list[int], lock: threading.Lock) -> None:
        self._inner = inner
        self._writes = writes
        self._lock = lock

    def write(self, data) -> int:
        with self._lock:
            self._writes.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def server(model_path):
    registry = ModelRegistry()
    registry.load(model_path)
    with ReproServer(registry, ServeConfig(port=0, max_wait_ms=0)) as srv:
        yield srv


@pytest.fixture
def instrumented(server, monkeypatch):
    """The server with every accepted connection's writes and NODELAY recorded."""
    handler_cls = server._httpd.RequestHandlerClass
    original_setup = handler_cls.setup
    record = {"writes": [], "nodelay": []}
    lock = threading.Lock()

    def setup(self):
        original_setup(self)
        with lock:
            record["nodelay"].append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
        self.wfile = _CountingWriter(self.wfile, record["writes"], lock)

    monkeypatch.setattr(handler_cls, "setup", setup)
    return server, record


def _raw_request(sock: socket.socket, request: bytes) -> http.client.HTTPResponse:
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    response.read()
    return response


def _post(path: str, body: bytes, headers: str) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n{headers}\r\n".encode() + body
    )


class TestOneWriteResponses:
    def test_every_response_is_one_write_on_a_nodelay_socket(
        self, instrumented, train_data
    ):
        server, record = instrumented
        graphs, _ = train_data
        json_client = ServeClient(server.url)
        binary_client = ServeClient(server.url, codec="binary")
        try:
            json_client.healthz()
            json_client.metrics()
            json_client.predict_proba(graphs[:3])
            json_client.predict(graphs[:1])
            binary_client.predict_proba(graphs[:2])
            json_client.trace(json_client.last_trace_id)
            for call in (
                lambda: json_client.predict(graphs[:1], model="nope"),  # 404
                lambda: json_client.request("GET", "/nope"),  # 404
                lambda: json_client.request("POST", "/v1/predict", {"graphs": 1}),
            ):
                try:
                    call()
                except Exception:  # noqa: BLE001 - error statuses are the point
                    pass
            responses = 9
        finally:
            json_client.close()
            binary_client.close()
        assert len(record["writes"]) == responses
        assert all(size > 0 for size in record["writes"])
        assert record["nodelay"] and all(record["nodelay"])

    def test_client_connection_is_nodelay(self, server):
        client = ServeClient(server.url)
        try:
            client.healthz()
            sock = client._conn.sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.close()


class TestServerTiming:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_predict_response_carries_stage_timings(self, server, train_data, codec):
        graphs, _ = train_data
        client = ServeClient(server.url, codec=codec)
        try:
            client.predict_proba(graphs[:2])
            timing = client.last_server_timing
            record = client.trace(client.last_trace_id)
        finally:
            client.close()
        assert tuple(timing) == WATERFALL_STAGES
        assert all(ms >= 0.0 for ms in timing.values())
        # The header and the stored waterfall come from the same stamps.
        stored = {s["name"]: s["duration_s"] * 1000.0 for s in record["spans"]}
        for name, ms in timing.items():
            assert ms == pytest.approx(stored[name], abs=1e-3)
        assert sum(timing.values()) <= record["duration_s"] * 1000.0 + 1e-3

    def test_non_predict_responses_carry_none(self, server):
        client = ServeClient(server.url)
        try:
            client.healthz()
            assert client.last_server_timing == {}
        finally:
            client.close()

    def test_parse_server_timing_tolerates_foreign_entries(self):
        parsed = parse_server_timing(
            'infer;dur=1.5, cache;desc="hit", db;dur=abc, total;desc=x;dur="2"'
        )
        assert parsed == {"infer": 1.5, "total": 2.0}
        assert parse_server_timing(None) == {}


class TestRequestFraming:
    @pytest.mark.parametrize(
        ("method", "path", "status"),
        [("POST", "/nope", 404), ("GET", "/healthz", 200)],
        ids=["post-unknown-path", "get-with-body"],
    )
    def test_unread_body_is_consumed_keepalive_stays_in_sync(
        self, server, method, path, status
    ):
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n"
            "leftover!"
        ).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            first = _raw_request(sock, request)
            second = _raw_request(sock, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert first.status == status
        assert second.status == 200

    @pytest.mark.parametrize(
        ("headers", "status"),
        [
            ("Content-Length: -1\r\n", 400),
            ("Content-Length: abc\r\n", 400),
            ("", 400),
            ("Content-Length: 1_0\r\n", 400),
            ("Content-Length: 3\r\nContent-Length: 4\r\n", 400),
            ("Transfer-Encoding: chunked\r\n", 400),
            (f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", 413),
        ],
        ids=["negative", "non-integer", "missing", "underscore", "conflicting",
             "chunked", "too-large"],
    )
    def test_bad_length_is_refused_and_closed(self, server, headers, status):
        errors = obs.counter("serve_internal_errors_total")
        before = errors.value
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            response = _raw_request(sock, _post("/v1/predict", b"", headers))
            assert response.status == status
            assert response.getheader("Connection") == "close"
            # The server hung up instead of parsing the rest as a request.
            assert sock.recv(1) == b""
        assert errors.value == before

    def test_valid_post_still_keeps_alive(self, server, train_data):
        graphs, _ = train_data
        body = json.dumps({"graphs": [graph_to_json(g) for g in graphs[:2]]}).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            request = _post(
                "/v1/predict_proba", body, f"Content-Length: {len(body)}\r\n"
            )
            first = _raw_request(sock, request)
            second = _raw_request(sock, request)
        assert first.status == second.status == 200
        assert first.getheader("Connection") is None


def test_loadgen_reports_server_accounted_and_unaccounted(server, train_data):
    graphs, _ = train_data
    result = run_load(server.url, graphs, concurrency=1, duration_s=0.3)
    assert result.ok > 0
    assert len(result.server_ms) == len(result.unaccounted_ms) == result.ok
    assert 0.0 <= result.server_p50_ms <= result.percentile_ms(50)
    assert result.unaccounted_p50_ms >= 0.0
    as_dict = result.to_dict()
    assert as_dict["server_p50_ms"] == round(result.server_p50_ms, 3)
    assert as_dict["unaccounted_p50_ms"] == round(result.unaccounted_p50_ms, 3)
    assert "unaccounted p50" in result.summary()
    assert np.all(np.asarray(result.unaccounted_ms) >= 0.0)
