"""Closed- and open-loop load generation against a serve endpoint.

Two standard load models:

* **closed-loop** — ``concurrency`` workers, each with its own
  keep-alive client, issuing the next request the moment the previous
  one finishes.  Offered load adapts to the server (classic
  think-time-zero closed system); this is the model that demonstrates
  micro-batching, because whenever the single inference worker is busy,
  the other ``concurrency - 1`` requests pile into the admission queue
  and fuse into one forward pass.
* **open-loop** — requests fire on a fixed global schedule of ``rps``
  regardless of completions (Poisson-less constant pacing).  Offered
  load is independent of the server, so saturation shows up honestly as
  shed (429) responses rather than as silently shrinking throughput.

Every request's fate is recorded — 2xx, 429 (shed), other statuses,
transport errors — so "no request silently dropped" is checkable:
``attempted == ok + shed + other + transport_errors``.

The report carries p50/p95/p99/mean latency, throughput over the
measurement window, per-status counts, the p50 of the server-accounted
time each ``200`` reported in its ``Server-Timing`` header and of the
per-request unaccounted rest (client latency minus server-accounted:
request read and parse plus transport), and server-side readings taken
as one atomic ``GET /metrics`` snapshot before and one after the run:
the *mean fused batch size* over the window (delta of
``serve_batch_size_sum`` / ``_count``) and the admission queue's
high-water depth (``serve_queue_depth_peak``).
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.serve.client import ServeClient
from repro.serve.codec import encode_predict_request

__all__ = ["LoadResult", "parse_promtext", "parse_promtext_samples", "run_load"]

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape_label_value(value: str) -> str:
    """Invert :func:`repro.obs.escape_label_value`."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            out.append(_UNESCAPE.get(value[i + 1], value[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_promtext_samples(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Every sample in a Prometheus text dump as ``(name, labels, value)``.

    Labelled series (histogram buckets etc.) parse into a label dict
    with values unescaped per the exposition format; comment lines
    (``# HELP`` / ``# TYPE``) are skipped.  The round-trip with
    :meth:`~repro.obs.MetricsRegistry.to_promtext` is covered in
    ``tests/obs/test_metrics.py``.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        labels: dict[str, str] = {}
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, sep, value_text = rest.rpartition("} ")
            if not sep:
                continue
            labels = {
                key: _unescape_label_value(raw)
                for key, raw in _LABEL_RE.findall(label_text)
            }
        else:
            parts = line.split()
            if len(parts) != 2:
                continue
            name, value_text = parts
        try:
            samples.append((name.strip(), labels, float(value_text)))
        except ValueError:
            continue
    return samples


def parse_promtext(text: str) -> dict[str, float]:
    """Scalar samples from a Prometheus text dump (labelled series skipped)."""
    return {
        name: value
        for name, labels, value in parse_promtext_samples(text)
        if not labels
    }


@dataclass
class LoadResult:
    """Outcome of one load run (see :func:`run_load`)."""

    mode: str
    endpoint: str
    concurrency: int
    target_rps: float | None
    duration_s: float
    attempted: int
    ok: int
    shed: int
    deadline_expired: int
    other_status: dict[int, int] = field(default_factory=dict)
    transport_errors: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: Per ``200``: the ``Server-Timing`` stage sum, and client latency
    #: minus it (only responses that carried the header).
    server_ms: list[float] = field(default_factory=list)
    unaccounted_ms: list[float] = field(default_factory=list)
    mean_batch_size: float | None = None
    batches: int | None = None
    queue_depth_peak: int | None = None

    # -- derived -------------------------------------------------------
    @property
    def throughput_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(self.latencies_ms, q))

    @property
    def server_p50_ms(self) -> float | None:
        """Median server-accounted time (None without Server-Timing)."""
        return float(np.median(self.server_ms)) if self.server_ms else None

    @property
    def unaccounted_p50_ms(self) -> float | None:
        """Median per-request client latency not accounted by the server."""
        return float(np.median(self.unaccounted_ms)) if self.unaccounted_ms else None

    @property
    def answered(self) -> int:
        """Requests that received *any* HTTP response."""
        return self.ok + self.shed + self.deadline_expired + sum(
            self.other_status.values()
        )

    def to_dict(self) -> dict:
        """JSON-safe summary (benchmarks check this in as an artifact)."""
        return {
            "mode": self.mode,
            "endpoint": self.endpoint,
            "concurrency": self.concurrency,
            "target_rps": self.target_rps,
            "duration_s": round(self.duration_s, 4),
            "attempted": self.attempted,
            "ok": self.ok,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "other_status": {str(k): v for k, v in sorted(self.other_status.items())},
            "transport_errors": self.transport_errors,
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_ms": {
                "p50": round(self.percentile_ms(50), 3),
                "p95": round(self.percentile_ms(95), 3),
                "p99": round(self.percentile_ms(99), 3),
                "mean": round(float(np.mean(self.latencies_ms)), 3)
                if self.latencies_ms
                else None,
            },
            "server_p50_ms": _round_or_none(self.server_p50_ms),
            "unaccounted_p50_ms": _round_or_none(self.unaccounted_p50_ms),
            "mean_batch_size": _round_or_none(self.mean_batch_size),
            "batches": self.batches,
            "queue_depth_peak": self.queue_depth_peak,
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"{self.mode}-loop load: {self.attempted} requests in "
            f"{self.duration_s:.2f}s ({self.concurrency} workers"
            + (f", target {self.target_rps:g} rps" if self.target_rps else "")
            + ")",
            f"  ok {self.ok}  shed(429) {self.shed}  "
            f"deadline(504) {self.deadline_expired}  "
            f"other {sum(self.other_status.values())}  "
            f"transport-errors {self.transport_errors}",
            f"  throughput: {self.throughput_rps:.1f} ok/s",
            f"  latency ms: p50 {self.percentile_ms(50):.2f}  "
            f"p95 {self.percentile_ms(95):.2f}  p99 {self.percentile_ms(99):.2f}",
        ]
        if self.server_p50_ms is not None and self.unaccounted_p50_ms is not None:
            lines.append(
                f"  server-accounted p50 {self.server_p50_ms:.2f} ms, "
                f"unaccounted p50 {self.unaccounted_p50_ms:.2f} ms"
            )
        if self.mean_batch_size is not None:
            lines.append(
                f"  server batching: {self.batches} batches, "
                f"mean {self.mean_batch_size:.2f} graphs/forward-pass"
            )
        if self.queue_depth_peak is not None:
            lines.append(
                f"  admission queue high-water: {self.queue_depth_peak} requests"
            )
        return "\n".join(lines)


def _round_or_none(value: float | None) -> float | None:
    return None if value is None else round(value, 3)


class _Stats:
    """Mutable per-worker tallies merged after the run."""

    __slots__ = (
        "attempted",
        "ok",
        "shed",
        "deadline",
        "other",
        "errors",
        "latencies",
        "server",
        "unaccounted",
    )

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.shed = 0
        self.deadline = 0
        self.other: dict[int, int] = {}
        self.errors = 0
        self.latencies: list[float] = []
        self.server: list[float] = []
        self.unaccounted: list[float] = []

    def record(
        self,
        status: int | None,
        elapsed_s: float,
        server_timing: dict[str, float] | None = None,
    ) -> None:
        self.attempted += 1
        if status is None:
            self.errors += 1
            return
        if status == 200:
            self.ok += 1
            latency_ms = elapsed_s * 1000.0
            self.latencies.append(latency_ms)
            if server_timing:
                server_ms = sum(server_timing.values())
                self.server.append(server_ms)
                self.unaccounted.append(latency_ms - server_ms)
        elif status == 429:
            self.shed += 1
        elif status == 504:
            self.deadline += 1
        else:
            self.other[status] = self.other.get(status, 0) + 1


def _metrics_snapshot(url: str) -> dict[str, float]:
    """One atomic ``GET /metrics`` scrape, parsed to scalar samples.

    Both the before- and after-run readings come from a *single* fetch
    each, so every delta computed between them (batch-size sum/count,
    request counters) describes the same instant of server state.
    """
    client = ServeClient(url)
    try:
        return parse_promtext(client.metrics())
    finally:
        client.close()


def run_load(
    url: str,
    graphs: list[Graph],
    *,
    mode: str = "closed",
    endpoint: str = "predict_proba",
    concurrency: int = 8,
    duration_s: float = 5.0,
    rps: float | None = None,
    timeout_ms: float | None = None,
    model: str | None = None,
    codec: str = "json",
) -> LoadResult:
    """Drive ``url`` with single-graph requests drawn round-robin from ``graphs``.

    ``mode="open"`` requires ``rps``; ``mode="closed"`` ignores it.
    ``codec="binary"`` sends/accepts ``application/x-repro-graph``
    frames instead of JSON — same responses, fewer bytes per request.
    Returns a :class:`LoadResult`; raises only on setup errors (a dead
    server mid-run is tallied as transport errors, not raised).
    """
    if not graphs:
        raise ValueError("need at least one graph to send")
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if endpoint not in ("predict", "predict_proba"):
        raise ValueError(f"unknown endpoint {endpoint!r}")
    if mode == "open" and (rps is None or rps <= 0):
        raise ValueError("open-loop mode needs rps > 0")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if codec not in ("json", "binary"):
        raise ValueError(f"codec must be 'json' or 'binary', got {codec!r}")

    path = f"/v1/{endpoint}"
    before = _metrics_snapshot(url)
    stats = [_Stats() for _ in range(concurrency)]
    start = time.perf_counter()
    end_at = start + duration_s
    ticket_lock = threading.Lock()
    next_ticket = 0

    def take_ticket() -> int:
        nonlocal next_ticket
        with ticket_lock:
            ticket, next_ticket = next_ticket, next_ticket + 1
        return ticket

    def one_request(client: ServeClient, index: int, tally: _Stats) -> None:
        graph = graphs[index % len(graphs)]
        if codec == "binary":
            payload: dict | bytes = encode_predict_request(
                [graph], model=model, timeout_ms=timeout_ms
            )
        else:
            payload = ServeClient._payload([graph], model, timeout_ms)
        t0 = time.perf_counter()
        try:
            status, _, _ = client.request("POST", path, payload)
        except OSError:
            status = None
        tally.record(status, time.perf_counter() - t0, client.last_server_timing)

    def closed_worker(worker: int) -> None:
        client = ServeClient(url, codec=codec)
        tally = stats[worker]
        k = 0
        try:
            while time.perf_counter() < end_at:
                one_request(client, worker + k * concurrency, tally)
                k += 1
        finally:
            client.close()

    def open_worker(worker: int) -> None:
        client = ServeClient(url, codec=codec)
        tally = stats[worker]
        assert rps is not None
        try:
            while True:
                ticket = take_ticket()
                fire_at = start + ticket / rps
                if fire_at >= end_at:
                    return
                delay = fire_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                one_request(client, ticket, tally)
        finally:
            client.close()

    target = closed_worker if mode == "closed" else open_worker
    threads = [
        threading.Thread(target=target, args=(i,), name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    after = _metrics_snapshot(url)
    d_sum = after.get("serve_batch_size_sum", 0.0) - before.get(
        "serve_batch_size_sum", 0.0
    )
    d_count = after.get("serve_batch_size_count", 0.0) - before.get(
        "serve_batch_size_count", 0.0
    )
    peak = after.get("serve_queue_depth_peak")

    result = LoadResult(
        mode=mode,
        endpoint=endpoint,
        concurrency=concurrency,
        target_rps=rps,
        duration_s=elapsed,
        attempted=sum(s.attempted for s in stats),
        ok=sum(s.ok for s in stats),
        shed=sum(s.shed for s in stats),
        deadline_expired=sum(s.deadline for s in stats),
        transport_errors=sum(s.errors for s in stats),
        latencies_ms=[x for s in stats for x in s.latencies],
        server_ms=[x for s in stats for x in s.server],
        unaccounted_ms=[x for s in stats for x in s.unaccounted],
        mean_batch_size=(d_sum / d_count) if d_count > 0 else None,
        batches=int(d_count) if d_count > 0 else None,
        queue_depth_peak=int(peak) if peak is not None else None,
    )
    for s in stats:
        for status, count in s.other.items():
            result.other_status[status] = result.other_status.get(status, 0) + count
    return result
