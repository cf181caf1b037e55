"""Pure-python client for a :class:`~repro.serve.http.ReproServer`.

Built on :mod:`http.client` with a persistent keep-alive connection
(reconnecting transparently when the server closes it), so the load
generator is not benchmarking TCP handshakes.  ``HTTPConnection.connect``
sets ``TCP_NODELAY`` on every socket it opens, so the request line,
headers and body it sends as separate writes are never held back by
Nagle.  One :class:`ServeClient` belongs to one thread; spawn a client
per worker.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlsplit

import numpy as np

from repro.graph.graph import Graph
from repro.obs.reqtrace import SERVER_TIMING_HEADER, TRACE_HEADER, parse_server_timing
from repro.serve.codec import (
    BINARY_CONTENT_TYPE,
    decode_predict_response,
    encode_predict_request,
    graph_to_json,
)

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(RuntimeError):
    """Non-200 response from the server; carries the HTTP status."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ServeClient:
    """Thin blocking client: ``predict``, ``predict_proba``, ``healthz``, ``metrics``.

    Every response's echoed trace id is kept in :attr:`last_trace_id`,
    so callers can correlate a prediction with its server-side waterfall
    (``client.trace(client.last_trace_id)`` or ``repro ops trace``), and
    its ``Server-Timing`` stage durations in :attr:`last_server_timing`.
    """

    def __init__(
        self, base_url: str, timeout: float = 30.0, codec: str = "json"
    ) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
        if parts.hostname is None:
            raise ValueError(f"no host in URL {base_url!r}")
        if codec not in ("json", "binary"):
            raise ValueError(f"codec must be 'json' or 'binary', got {codec!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        #: Wire codec for predict traffic: ``"json"`` (default) or
        #: ``"binary"`` (CSR tensors via ``application/x-repro-graph``;
        #: bitwise the same numbers, a fraction of the bytes).
        self.codec = codec
        self._conn: http.client.HTTPConnection | None = None
        #: Trace id echoed by the most recent response (None before any).
        self.last_trace_id: str | None = None
        #: Stage name -> server-side milliseconds (``queue_wait``,
        #: ``batch_wait``, ``infer``, ``serialize``) from the most recent
        #: response's ``Server-Timing`` header; empty when it had none.
        self.last_server_timing: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self,
        method: str,
        path: str,
        payload: dict | bytes | None = None,
        trace_id: str | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round-trip; returns ``(status, headers, body)`` uninterpreted.

        A ``dict`` payload goes out as JSON; ``bytes`` are sent verbatim
        as a pre-encoded binary frame (and the binary codec is offered
        for the response via ``Accept``).

        ``trace_id`` is sent as the ``X-Repro-Trace-Id`` header (the
        server adopts valid ids instead of minting its own); the id
        echoed back is recorded in :attr:`last_trace_id`.

        Retries exactly once on a dead keep-alive connection (the server
        restarting or idling out the socket); a second failure raises.
        """
        if isinstance(payload, (bytes, bytearray)):
            # Pre-encoded binary frame: send and accept the binary codec.
            body: bytes | None = bytes(payload)
            headers = {
                "Content-Type": BINARY_CONTENT_TYPE,
                "Accept": BINARY_CONTENT_TYPE,
            }
        else:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                response_headers = {
                    k.lower(): v for k, v in response.getheaders()
                }
                echoed = response_headers.get(TRACE_HEADER.lower())
                if echoed:
                    self.last_trace_id = echoed
                self.last_server_timing = parse_server_timing(
                    response_headers.get(SERVER_TIMING_HEADER.lower())
                )
                return response.status, response_headers, data
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _json_request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        trace_id: str | None = None,
    ) -> dict:
        status, headers, data = self.request(method, path, payload, trace_id=trace_id)
        try:
            parsed = json.loads(data) if data else {}
        except json.JSONDecodeError:
            parsed = {"error": data.decode(errors="replace")}
        if status != 200:
            retry_after = headers.get("retry-after")
            raise ServeClientError(
                status,
                parsed.get("error", "request failed"),
                retry_after=float(retry_after) if retry_after else None,
            )
        return parsed

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    @staticmethod
    def _payload(
        graphs: list[Graph], model: str | None, timeout_ms: float | None
    ) -> dict:
        payload: dict = {"graphs": [graph_to_json(g) for g in graphs]}
        if model is not None:
            payload["model"] = model
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return payload

    def _predict_body(
        self,
        path: str,
        graphs: list[Graph],
        model: str | None,
        timeout_ms: float | None,
        trace_id: str | None,
    ) -> dict:
        """One predict round-trip through the configured codec."""
        if self.codec == "binary":
            frame = encode_predict_request(
                graphs, model=model, timeout_ms=timeout_ms
            )
            status, headers, data = self.request(
                "POST", path, frame, trace_id=trace_id
            )
            if status != 200:
                # Errors come back as JSON regardless of the codec.
                try:
                    parsed = json.loads(data) if data else {}
                except json.JSONDecodeError:
                    parsed = {"error": data.decode(errors="replace")}
                retry_after = headers.get("retry-after")
                raise ServeClientError(
                    status,
                    parsed.get("error", "request failed"),
                    retry_after=float(retry_after) if retry_after else None,
                )
            return decode_predict_response(data)
        return self._json_request(
            "POST", path, self._payload(graphs, model, timeout_ms), trace_id=trace_id
        )

    def predict(
        self,
        graphs: list[Graph],
        model: str | None = None,
        timeout_ms: float | None = None,
        trace_id: str | None = None,
    ) -> np.ndarray:
        """Predicted class labels (``(n,)`` int array)."""
        body = self._predict_body(
            "/v1/predict", graphs, model, timeout_ms, trace_id
        )
        return np.asarray(body["labels"], dtype=np.int64)

    def predict_proba(
        self,
        graphs: list[Graph],
        model: str | None = None,
        timeout_ms: float | None = None,
        trace_id: str | None = None,
    ) -> np.ndarray:
        """Class-probability matrix (``(n, c)`` float array).

        Both codecs return the server's numbers bitwise: JSON floats
        round-trip exactly (shortest-repr encoding) and the binary codec
        carries the float64 tensor itself.
        """
        body = self._predict_body(
            "/v1/predict_proba", graphs, model, timeout_ms, trace_id
        )
        return np.asarray(body["proba"], dtype=np.float64)

    def healthz(self) -> dict:
        return self._json_request("GET", "/healthz")

    def trace(self, trace_id: str) -> dict:
        """The stored waterfall record for ``trace_id`` (404 -> error)."""
        return self._json_request("GET", f"/v1/traces/{trace_id}")

    def metrics(self) -> str:
        """Raw Prometheus text from ``GET /metrics``."""
        status, _, data = self.request("GET", "/metrics")
        if status != 200:
            raise ServeClientError(status, "metrics endpoint failed")
        return data.decode()
