"""The serving side of the benchmark: the server process, answer checks, load.

The server is started through the public CLI (``python -m repro serve
--model PATH --port 0``) with every other setting at its default, in a
process of its own so the load generator never shares its interpreter
lock.  In the traced run the same CLI entry point is started through
``perfbench/traced_serve.py``, which installs the layer shims first.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from perfbench.openloop import Sample
from repro.serve import ServeClient, ServeClientError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_SERVE = os.path.join(ROOT, "perfbench", "traced_serve.py")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on (\S+)")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


class Server:
    """One ``repro serve`` process; ``start()`` returns seconds to healthy."""

    def __init__(self, model_path: str, log_path: str, spans_path: str | None = None):
        self.model_path = model_path
        self.log_path = log_path
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self._reader: threading.Thread | None = None

    def start(self) -> float:
        cli = ["serve", "--model", self.model_path, "--port", "0"]
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, TRACED_SERVE, self.spans_path, *cli]
        src = os.path.join(ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True
            )
        lines: queue.Queue = queue.Queue()

        def pump() -> None:  # drains stdout until the process exits
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(None)

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        deadline = started + START_TIMEOUT_S
        while self.url is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise BenchmarkError(f"server did not start; see {self.log_path}")
            match = _LISTENING.search(line)
            if match:
                self.url = match.group(1)
        client = ServeClient(self.url, timeout=5.0)
        try:
            while True:
                try:
                    client.healthz()
                    return time.perf_counter() - started
                except (OSError, ServeClientError):
                    if time.perf_counter() > deadline:
                        self.stop()
                        raise BenchmarkError("server never became healthy") from None
                    time.sleep(0.005)
        finally:
            client.close()

    def healthz(self) -> dict:
        client = ServeClient(self.url)
        try:
            return client.healthz()
        finally:
            client.close()

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then kill if it lingers or
        if this process is interrupted while waiting."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            if self._reader is not None:
                self._reader.join(timeout=STOP_TIMEOUT_S)
            self.proc.stdout.close()
            self.proc = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class AnswerChecker:
    """Compares served probabilities with in-process ``predict_proba``.

    ``expected`` holds the saved model's in-process answers for the
    whole request pool.  A served row must equal its expected row
    bitwise; any difference makes the run incorrect.  Accuracy is
    tallied against the generator's labels over the answers checked.
    """

    def __init__(self, expected: np.ndarray, labels: np.ndarray, classes: np.ndarray):
        self.expected = expected
        self.labels = labels
        self.classes = classes
        self.mismatches = 0
        self.graphs = 0
        self.hits = 0
        self._lock = threading.Lock()

    def check(self, lo: int, hi: int, proba: np.ndarray, tally: bool = True) -> None:
        want = self.expected[lo:hi]
        same = proba.shape == want.shape and proba.tobytes() == want.tobytes()
        hits = int((self.classes[np.argmax(proba, axis=1)] == self.labels[lo:hi]).sum())
        with self._lock:
            self.mismatches += not same
            if tally:
                self.graphs += hi - lo
                self.hits += hits

    @property
    def accuracy(self) -> float:
        return self.hits / self.graphs if self.graphs else float("nan")


def trace_id(index: int) -> str:
    return f"{index:016x}"


@dataclass
class Load:
    """A pool of request graphs and the checker for their answers."""

    graphs: list
    checker: AnswerChecker
    per_request: int

    def request(self, client, index: int, block: int, tally: bool = True) -> bool:
        """Send graphs ``[block*k, block*k + k)`` as request ``index``."""
        lo = block * self.per_request
        hi = lo + self.per_request
        proba = client.predict_proba(self.graphs[lo:hi], trace_id=trace_id(index))
        self.checker.check(lo, hi, proba, tally=tally)
        return True


def closed_loop(
    url: str,
    load: Load,
    clients: int,
    seconds: float,
    min_count: int,
    cap_s: float,
    first: int = 0,
) -> list[Sample]:
    """``clients`` connections, each sending its next request when the
    last one is answered, until ``seconds`` have passed and ``min_count``
    requests are done (or ``cap_s`` runs out).  Request indices start at
    ``first``; request ``i`` carries pool block ``i`` (cycling)."""
    blocks = len(load.graphs) // load.per_request
    lock = threading.Lock()
    samples: list[Sample] = []
    issued = [first]
    t0 = time.perf_counter()

    def worker() -> None:
        client = ServeClient(url)
        try:
            client.healthz()  # open the keep-alive connection before timing
            while True:
                now = time.perf_counter() - t0
                with lock:
                    done = now >= seconds and len(samples) >= min_count
                    if done or now >= cap_s:
                        return
                    index = issued[0]
                    issued[0] += 1
                sent = time.perf_counter()
                try:
                    ok = load.request(client, index, index % blocks)
                except Exception:  # noqa: BLE001 - counted as a failed request
                    ok = False
                sample = Sample(index, sent, sent, time.perf_counter(), ok)
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(samples, key=lambda s: s.index)


def fetch_traces(url: str, indices) -> dict[int, dict]:
    """Server waterfall records (``GET /v1/traces/<id>``) by request index.

    Each fetch uses a fresh connection: back-to-back requests on one
    keep-alive connection would each pay the transport stall this
    benchmark measures, for no information.
    """
    out = {}
    for i in indices:
        client = ServeClient(url)
        try:
            out[i] = client.trace(trace_id(i))
        except ServeClientError:
            pass  # evicted from the server's bounded store
        finally:
            client.close()
    return out
