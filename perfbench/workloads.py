"""The benchmark's three workloads and the metrics each one reports.

Every workload reports every end-to-end metric, with the meaning given
in ``perfbench/README.md``; the traced run (``trace=True``) reports the
per-layer metrics instead.  A per-layer metric reads 0 on a workload
whose run never enters that layer.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import stats
from perfbench.openloop import Sample, lateness_grows, run_open_loop
from perfbench.serving import (
    AnswerChecker,
    Load,
    Server,
    closed_loop,
    fetch_traces,
    trace_id,
)
from perfbench.shims import install
from perfbench.spans import Span, SpanRecorder, aggregate, load_spans
from repro.core.model import deepmap_wl
from repro.core.persistence import load_model, save_model
from repro.datasets import make_dataset
from repro.eval.protocol import evaluate_neural_model, neural_fold_payloads
from repro.serve import ServeClient

#: Open-loop rates of ``serve_online``, requests per second.
LADDER_RPS = (20, 40, 80, 160, 320)
#: Latency limit on the tail percentile, from due time.
LATENCY_LIMIT_S = 0.050
#: Growth of mean lateness over a step above which its backlog grows.
LATE_GROWTH_LIMIT_S = 0.010
TAIL = 95.0
#: Graphs per ``score_bulk`` request: the server's default ``max_batch``.
BULK_GRAPHS = 32
#: Distinct ``score_bulk`` requests before the pool repeats.
BULK_BLOCKS = 32
#: Closed-loop chunks (fresh connections each) per ``score_bulk`` server.
BULK_CHUNKS_PER_SERVER = 3
#: Upper bound on one closed-loop measurement, seconds.
CLOSED_LOOP_CAP_S = 90.0
#: Open-loop sender threads (one keep-alive connection each).
CLIENTS = os.cpu_count() or 1
#: ``score_bulk`` connections.  One: with ``nproc`` of them on a 2-CPU
#: box the closed loop is CPU-bound end to end, and its figures follow
#: the shared host's speed (23-28% spread across runs, above the largest
#: bound); with one, the delayed-ACK stall is a fixed share of each request.
BULK_CLIENTS = 1
SERVER_SETUPS = 5
DATASET_SETUPS = 8
CV_DATASETS = 2
CV_FOLDS = 3
#: Training epochs of every model, the serving fixture's included.
EPOCHS = 10
#: MUTAG's graph count in the paper; ``scale=n/MUTAG_GRAPHS`` yields n graphs.
MUTAG_GRAPHS = 188
WARM_INDEX = 1 << 40

TIMED_SELF = (
    "features.counts",
    "features.vectorize",
    "encode.centrality",
    "encode.union",
    "encode.rf",
    "encode.assemble",
    "nn.conv1_fwd",
    "nn.head_fwd",
    "nn.conv1_bwd",
    "nn.head_bwd",
    "nn.optim",
)
TIMED_TOTAL = ("eval.fold", "eval.encode", "eval.train")
COUNTED = (
    "codec.parse",
    "model.predict",
    "encode.centrality",
    "nn.conv1_fwd",
    "nn.conv1_bwd",
    "nn.optim",
    "eval.fold",
)
STAGES = ("queue_wait", "batch_wait", "infer", "serialize")
PER_LAYER = (
    [
        "client.latency_ms",
        "gen.late_ms",
        "gen.late_p95_ms",
        "http.unaccounted_ms",
        "batcher.queue_wait_ms",
        "batcher.batch_wait_ms",
        "batcher.infer_ms",
        "batcher.graphs_per_pass",
        "codec.parse_ms",
        "codec.serialize_ms",
        "model.predict_ms",
        "model.self_ms",
    ]
    + [f"{name}_ms" for name in TIMED_SELF]
    + ["encode.tensor_mib", "encode.nnz_share", "nn.conv1_fwd_mib"]
    + [f"{name}_s" for name in TIMED_TOTAL]
    + [f"{name}_calls" for name in COUNTED]
    + ["trace.overhead_share"]
)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    out_dir: str


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def fixture_model(out_dir: str):
    """Train and save the serving model; return its path and the saved
    model loaded back (the reference for every served answer)."""
    ds = make_dataset("MUTAG", scale=0.08, seed=0)
    model = deepmap_wl(h=2, r=3, epochs=EPOCHS, seed=0).fit(ds.graphs, ds.y)
    path = os.path.join(out_dir, "model.pkl")
    save_model(model, path)
    return path, load_model(path)


def request_pool(seed: int, n: int, model, per_request: int) -> Load:
    """``n`` MUTAG-generator graphs from the workload seed, with their
    in-process answers.  The pool's generation seed is derived from the
    workload seed so it never coincides with the fixture's training set."""
    pool_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    ds = make_dataset("MUTAG", scale=n / MUTAG_GRAPHS, seed=pool_seed)
    graphs, labels = ds.graphs[:n], ds.y[:n]
    if len(graphs) != n:
        raise RuntimeError(f"asked for {n} graphs, generator gave {len(graphs)}")
    expected = model.predict_proba(graphs, chunk_size=BULK_GRAPHS)
    return Load(graphs, AnswerChecker(expected, labels, model.classes_), per_request)


def _warm(url: str, load: Load, requests: int) -> None:
    """Requests before timing; answers are checked but not tallied."""
    client = ServeClient(url)
    try:
        for k in range(requests):
            load.request(client, WARM_INDEX + k, 0, tally=False)
    finally:
        client.close()


# ----------------------------------------------------------------------
# serve_online
# ----------------------------------------------------------------------
def _online_step(url: str, load: Load, rate: float, first: int, count: int) -> list[Sample]:
    """One ladder step; request ``i`` carries pool graph ``first + i``."""
    clients = [ServeClient(url) for _ in range(CLIENTS)]
    try:
        for client in clients:
            client.healthz()  # open the keep-alive connection before timing
        senders = [
            lambda i, c=c: load.request(c, first + i, first + i) for c in clients
        ]
        samples = run_open_loop(senders, rate, count)
    finally:
        for client in clients:
            client.close()
    for s in samples:
        s.index += first
    return samples


def _meets_limit(parts: list[list[Sample]]) -> bool:
    """p95 from due time within the limit (a failed request misses it)
    and no part of the step with a growing backlog."""
    latencies = [s.latency if s.ok else math.inf for part in parts for s in part]
    return stats.percentile(latencies, TAIL) <= LATENCY_LIMIT_S and not any(
        lateness_grows(part, LATE_GROWTH_LIMIT_S) for part in parts
    )


def _ok_rate(parts: list[list[Sample]]) -> float:
    """Requests answered per second, first due time to last completion."""
    ok = sum(s.ok for part in parts for s in part)
    return ok / sum(max(s.done for s in part) - part[0].due for part in parts)


def _sample_note(samples: list[Sample]) -> str:
    n = sum(s.ok for s in samples)
    p = stats.tail_percentile(n)
    tail = f"up to p{p:g}" if p else "no tail percentile"
    return f"latency sample: {n} answered requests, supports {tail}"


def _latency_ms(samples: list[Sample], p: float | None = None) -> float:
    latencies = [s.latency for s in samples if s.ok]
    if p is None:
        return stats.median(latencies) * 1e3
    return stats.percentile(latencies, p) * 1e3


def serve_online(ctx: Context) -> Result:
    res = Result()
    model_path, model = fixture_model(ctx.out_dir)
    # The latency step runs for ``seconds``; the steps above it only have
    # to decide the limit, which takes the p95's minimum sample.
    n_base = max(stats.min_samples(TAIL), round(LADDER_RPS[0] * ctx.seconds))
    per_server = math.ceil(n_base / SERVER_SETUPS)
    n_step = stats.min_samples(TAIL)
    load = request_pool(
        ctx.seed, per_server * SERVER_SETUPS + n_step * (len(LADDER_RPS) - 1), model, 1
    )
    log = os.path.join(ctx.out_dir, "server.log")
    if ctx.trace:
        return _traced_serving(
            ctx, res, load, model_path,
            lambda url: _online_step(url, load, LADDER_RPS[0], 0, n_base),
        )
    # The latency step is split over the servers started for set-up, so a
    # run samples several processes; the ladder climbs on the last one.
    times, base, peak = [], [], 0
    steps: list[tuple[int, list[list[Sample]]]] = []
    for k in range(SERVER_SETUPS):
        server = Server(model_path, log)
        with server:
            times.append(server.start())
            _warm(server.url, load, 5)
            base.append(
                _online_step(server.url, load, LADDER_RPS[0], k * per_server, per_server)
            )
            if k == SERVER_SETUPS - 1:
                steps.append((LADDER_RPS[0], base))
                first = SERVER_SETUPS * per_server
                for rate in LADDER_RPS[1:]:
                    if not _meets_limit(steps[-1][1]):
                        break
                    steps.append((rate, [_online_step(server.url, load, rate, first, n_step)]))
                    first += n_step
            peak = max(peak, server.healthz()["resources"]["peak_rss_bytes"])
    passing = [parts for _, parts in steps if _meets_limit(parts)]
    for rate, parts in steps:
        samples = [s for part in parts for s in part]
        res.attempted += len(samples)
        res.failed += sum(not s.ok for s in samples)
        late = stats.percentile([s.late for s in samples], TAIL) * 1e3
        res.lines.append(
            f"step {rate:>3} rps: {len(samples)} sent, "
            f"{sum(not s.ok for s in samples)} failed, "
            f"p50 {_latency_ms(samples):.2f} ms, "
            f"p95 {_latency_ms(samples, TAIL):.2f} ms, late p95 {late:.2f} ms, "
            f"limit {'met' if _meets_limit(parts) else 'missed'}"
        )
    res.mismatches = load.checker.mismatches
    pooled = [s for part in base for s in part]
    res.lines.append(_sample_note(pooled))
    res.metrics = {
        "latency_p50_ms": _latency_ms(pooled),
        "latency_p95_ms": _latency_ms(pooled, TAIL),
        "max_rate_rps": _ok_rate(passing[-1]) if passing else 0.0,
        "throughput_gps": _ok_rate(steps[-1][1]),
        "accuracy": load.checker.accuracy,
        "peak_rss_mb": peak / 1e6,
        "setup_s": stats.median(times),
    }
    return res


# ----------------------------------------------------------------------
# score_bulk
# ----------------------------------------------------------------------
def score_bulk(ctx: Context) -> Result:
    res = Result()
    model_path, model = fixture_model(ctx.out_dir)
    load = request_pool(ctx.seed, BULK_GRAPHS * BULK_BLOCKS, model, BULK_GRAPHS)
    log = os.path.join(ctx.out_dir, "server.log")

    def measure(url: str) -> list[Sample]:
        return closed_loop(
            url, load, BULK_CLIENTS, ctx.seconds, stats.min_samples(TAIL), CLOSED_LOOP_CAP_S
        )

    if ctx.trace:
        return _traced_serving(ctx, res, load, model_path, measure)
    # The closed loop's timing locks into patterns that last as long as
    # its connections (and server), so the measurement is split into
    # chunks with fresh connections, spread over the servers started for
    # set-up.
    chunks = SERVER_SETUPS * BULK_CHUNKS_PER_SERVER
    times, samples, wall, peak = [], [], 0.0, 0
    for _ in range(SERVER_SETUPS):
        server = Server(model_path, log)
        with server:
            times.append(server.start())
            _warm(server.url, load, 2)
            for _ in range(BULK_CHUNKS_PER_SERVER):
                part = closed_loop(
                    server.url, load, BULK_CLIENTS, ctx.seconds / chunks,
                    math.ceil(stats.min_samples(TAIL) / chunks),
                    CLOSED_LOOP_CAP_S, first=len(samples),
                )
                samples += part
                wall += max(s.done for s in part) - min(s.sent for s in part)
            peak = max(peak, server.healthz()["resources"]["peak_rss_bytes"])
    ok = [s for s in samples if s.ok]
    res.attempted = len(samples)
    res.failed = len(samples) - len(ok)
    res.mismatches = load.checker.mismatches
    res.metrics = {
        "latency_p50_ms": _latency_ms(samples),
        "latency_p95_ms": _latency_ms(samples, TAIL),
        "max_rate_rps": len(ok) / wall,
        "throughput_gps": len(ok) * BULK_GRAPHS / wall,
        "accuracy": load.checker.accuracy,
        "peak_rss_mb": peak / 1e6,
        "setup_s": stats.median(times),
    }
    res.lines.append(
        f"closed loop, {BULK_CLIENTS} connection(s) x {BULK_GRAPHS} graphs on "
        f"{SERVER_SETUPS} servers: {len(samples)} requests in {wall:.2f} s"
    )
    res.lines.append(_sample_note(samples))
    return res


# ----------------------------------------------------------------------
# Traced serving run
# ----------------------------------------------------------------------
def _traced_serving(ctx: Context, res: Result, load: Load, model_path: str, measure) -> Result:
    """Measure once untraced and once through the shimmed server; the
    per-layer metrics come from the traced pass."""
    log = os.path.join(ctx.out_dir, "server.log")
    server = Server(model_path, log)
    with server:
        server.start()
        _warm(server.url, load, 2)
        base = measure(server.url)
    spans_path = os.path.join(ctx.out_dir, "server-spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    traced = Server(model_path, log, spans_path=spans_path)
    with traced:
        traced.start()
        _warm(traced.url, load, 2)
        wall_offset = time.time() - time.perf_counter()
        samples = measure(traced.url)
        records = fetch_traces(traced.url, [s.index for s in samples if s.ok])
    server_spans = load_spans(spans_path)
    for run in (base, samples):
        res.attempted += len(run)
        res.failed += sum(not s.ok for s in run)
    res.mismatches = load.checker.mismatches

    window = (min(s.due for s in samples), max(s.done for s in samples))
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_metrics(server_spans, window, "model.predict"))
    traced_ok = [s for s in samples if s.ok and s.index in records]
    stage_ms = {
        name: _mean(
            next((sp["duration_s"] for sp in records[s.index]["spans"] if sp["name"] == name), 0.0)
            for s in traced_ok
        ) * 1e3
        for name in STAGES
    }
    round_trip_ms = _mean(s.done - s.sent for s in traced_ok) * 1e3
    metrics.update(
        {
            "client.latency_ms": _mean(s.latency for s in traced_ok) * 1e3,
            "gen.late_ms": _mean(s.sent - s.due for s in traced_ok) * 1e3,
            "gen.late_p95_ms": stats.percentile([s.late for s in samples], TAIL) * 1e3,
            "batcher.queue_wait_ms": stage_ms["queue_wait"],
            "batcher.batch_wait_ms": stage_ms["batch_wait"],
            "batcher.infer_ms": stage_ms["infer"],
            "codec.serialize_ms": stage_ms["serialize"],
            "http.unaccounted_ms": round_trip_ms
            - metrics["codec.parse_ms"]
            - sum(stage_ms.values()),
            "trace.overhead_share": _latency_ms(samples) / _latency_ms(base) - 1.0,
        }
    )
    res.metrics = metrics
    res.spans = _join_request_spans(samples, records, wall_offset) + server_spans
    res.lines.append(
        f"traced {len(samples)} requests ({len(traced_ok)} with server waterfalls); "
        f"p50 untraced {_latency_ms(base):.2f} ms, traced {_latency_ms(samples):.2f} ms"
    )
    return res


def _join_request_spans(samples: list[Sample], records: dict, wall_offset: float) -> list[Span]:
    """Client request spans with the server's stage waterfall as children.

    The server stamps its waterfall with wall-clock time; ``wall_offset``
    (wall minus monotonic, read in this process) places it on the
    monotonic clock all other spans use.
    """
    recorder = SpanRecorder()
    out = []
    for s in samples:
        tid = trace_id(s.index)
        client = Span(
            "client.request", s.due, s.done, recorder.next_id(), trace_id=tid,
            attrs={"sent": s.sent, "ok": s.ok},
        )
        out.append(client)
        record = records.get(s.index)
        if record is None:
            continue
        start = record["ts"] - wall_offset
        request = Span(
            "server.request", start, start + record["duration_s"], recorder.next_id(),
            parent_id=client.span_id, trace_id=tid,
            attrs={"batch_id": record.get("batch_id")},
        )
        out.append(request)
        for stage in record["spans"]:
            lo = start + stage["offset_s"]
            out.append(
                Span(
                    f"server.{stage['name']}", lo, lo + stage["duration_s"],
                    recorder.next_id(), parent_id=request.span_id, trace_id=tid,
                )
            )
    return out


# ----------------------------------------------------------------------
# Per-layer metrics from shim spans
# ----------------------------------------------------------------------
def layer_metrics(spans: list[Span], window, unit: str) -> dict:
    """Per-layer metrics from shim spans, per call of the ``unit`` span
    (``model.predict``: one inference pass; ``eval.fold``: one CV fold).

    ``*_ms`` of a layer is its self time per unit, so ``model.predict_ms``
    (inclusive) equals ``model.self_ms`` plus the ``features``, ``encode``
    and forward ``nn`` metrics.  ``eval.*_s`` are inclusive per fold.
    """
    layers = aggregate(spans, window)
    units = layers[unit].calls if unit in layers else 0
    if units == 0:
        raise RuntimeError(f"no {unit} span recorded in the measured window")
    out = {}
    for name in TIMED_SELF:
        out[f"{name}_ms"] = layers[name].self_s / units * 1e3 if name in layers else 0.0
    for name in TIMED_TOTAL:
        out[f"{name}_s"] = layers[name].total_s / units if name in layers else 0.0
    for name in COUNTED:
        out[f"{name}_calls"] = float(layers[name].calls) if name in layers else 0.0
    if "model.predict" in layers:
        out["model.predict_ms"] = layers["model.predict"].total_s / units * 1e3
        out["model.self_ms"] = layers["model.predict"].self_s / units * 1e3
    if "codec.parse" in layers:
        parse = layers["codec.parse"]
        out["codec.parse_ms"] = parse.self_s / parse.calls * 1e3

    def attrs(name):
        return [
            s.attrs for s in spans if s.name == name and window[0] <= s.start <= window[1]
        ]

    predicts = attrs("model.predict")
    if predicts:
        out["batcher.graphs_per_pass"] = _mean(a["graphs"] for a in predicts)
    encodes = attrs("encode.assemble")
    if encodes:
        out["encode.tensor_mib"] = _mean(a["mib"] for a in encodes)
        out["encode.nnz_share"] = sum(a["nnz"] for a in encodes) / sum(
            a["size"] for a in encodes
        )
    convs = attrs("nn.conv1_fwd")
    if convs:
        out["nn.conv1_fwd_mib"] = _mean(a["mib"] for a in convs)
    return out


# ----------------------------------------------------------------------
# train_cv
# ----------------------------------------------------------------------
def train_cv(ctx: Context) -> Result:

    res = Result()
    # CV cost follows the largest graph (it sets the tensor width), so a
    # run averages over CV_DATASETS datasets drawn from the workload seed.
    seeds = [
        int(s) for s in np.random.SeedSequence([ctx.seed, 2]).generate_state(CV_DATASETS)
    ]
    times = []
    for _ in range(DATASET_SETUPS):
        for seed in seeds:
            started = time.perf_counter()
            make_dataset("MUTAG", scale=1.0, seed=seed)
            times.append(time.perf_counter() - started)
    datasets = [make_dataset("MUTAG", scale=1.0, seed=seed) for seed in seeds]

    def factory(fold_seed):
        return deepmap_wl(h=2, r=3, epochs=EPOCHS, seed=fold_seed)

    def cv(ds):
        started = time.perf_counter()
        result = evaluate_neural_model(
            factory, ds, n_splits=CV_FOLDS, seed=ctx.seed, workers=1
        )
        wall = time.perf_counter() - started
        res.attempted += CV_FOLDS
        finished = [a for a in result.fold_accuracies if math.isfinite(a)]
        res.failed += CV_FOLDS - len(finished)
        res.lines.append(
            f"cv: {CV_FOLDS} folds x {EPOCHS} epochs on {len(ds.graphs)} graphs "
            f"(largest {max(g.n for g in ds.graphs)} vertices) in {wall:.2f} s, "
            f"accuracy {result.mean:.4f}"
        )
        return result, wall

    if ctx.trace:
        base, base_wall = cv(datasets[0])
        recorder = SpanRecorder()
        install(recorder, ("model", "eval"))
        traced, traced_wall = cv(datasets[0])
        # The shims must not change what is computed.
        res.mismatches = int(traced.fold_accuracies != base.fold_accuracies)
        res.mismatches += res.failed
        res.metrics = dict.fromkeys(PER_LAYER, 0.0)
        res.metrics.update(layer_metrics(recorder.spans, (-math.inf, math.inf), "eval.fold"))
        res.metrics["trace.overhead_share"] = traced_wall / base_wall - 1.0
        res.spans = recorder.spans
        return res

    # Whole passes over the same datasets, so a faster build measures the
    # same inputs as a slower one.
    runs = []
    measured = 0.0
    while not runs or measured < ctx.seconds:
        for ds in datasets:
            runs.append(cv(ds))
            measured += runs[-1][1]
    res.mismatches = res.failed
    fold_s = [s for result, _ in runs for s in result.extra["fold_seconds"]]
    train_graphs = sum(
        len(p[1])
        for ds in datasets
        for p in neural_fold_payloads(ds.y, CV_FOLDS, ctx.seed)
    )
    res.metrics = {
        "latency_p50_ms": stats.median(fold_s) * 1e3,
        # Three folds support no tail percentile; the slowest fold of each
        # CV (its wall time with folds run in parallel) stands in for it.
        "latency_p95_ms": stats.median(
            max(result.extra["fold_seconds"]) for result, _ in runs
        ) * 1e3,
        "max_rate_rps": len(fold_s) / measured,
        "throughput_gps": len(runs) // len(datasets) * train_graphs * EPOCHS / measured,
        "accuracy": _mean(result.mean for result, _ in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": stats.median(times),
    }
    return res


WORKLOADS = {
    "serve_online": serve_online,
    "score_bulk": score_bulk,
    "train_cv": train_cv,
}
