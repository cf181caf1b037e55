"""`repro.serve` — batched, backpressured inference serving.

The training side of the repo fits :class:`~repro.core.model.DeepMapClassifier`
models and persists them with :mod:`repro.core.persistence`; this package
turns such artifacts into a network service:

* :class:`~repro.serve.registry.ModelRegistry` — named, versioned model
  slots loaded from persistence files, warm-preloaded and hot-swappable;
* :class:`~repro.serve.batcher.MicroBatcher` — coalesces concurrent
  single-graph predict requests into one encoder/CNN forward pass
  (dispatch at once when no pass is running, otherwise fill until
  ``max_batch`` graphs or ``max_wait_ms``; per-request deadlines,
  bounded admission queue that sheds instead of collapsing);
* :class:`~repro.serve.http.ReproServer` — a ``ThreadingHTTPServer``
  front-end (``POST /v1/predict``, ``POST /v1/predict_proba``,
  ``GET /healthz``, ``GET /metrics``, ``GET /v1/traces/<id>``) with
  end-to-end request tracing (``X-Repro-Trace-Id``), SLO monitoring
  (:mod:`repro.obs.slo`), and background resource sampling
  (:mod:`repro.obs.resources`);
* :class:`~repro.serve.client.ServeClient` and
  :func:`~repro.serve.loadgen.run_load` — a pure-python client and a
  closed/open-loop load generator reporting p50/p95/p99 latency and
  throughput.

Batching is observably correct: a batched forward pass produces
bitwise-identical probabilities to a serial in-process
``predict_proba`` on the same graphs (``tests/serve`` proves it with a
hypothesis property test), because every pipeline stage — vertex feature
extraction, centrality alignment, receptive-field assembly, and the
bias-free CNN — is per-graph independent.

Everything here is stdlib + numpy; see ``docs/SERVING.md``.
"""

from __future__ import annotations

from repro.serve.batcher import (
    BatcherStopped,
    DeadlineExceeded,
    MicroBatcher,
    RequestShed,
)
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.codec import (
    CodecError,
    graph_from_json,
    graph_to_json,
    parse_predict_request,
)
from repro.serve.http import ReproServer, ServeConfig
from repro.serve.loadgen import (
    LoadResult,
    parse_promtext,
    parse_promtext_samples,
    run_load,
)
from repro.serve.registry import ModelEntry, ModelRegistry

__all__ = [
    "BatcherStopped",
    "CodecError",
    "DeadlineExceeded",
    "LoadResult",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "ReproServer",
    "RequestShed",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "graph_from_json",
    "graph_to_json",
    "parse_predict_request",
    "parse_promtext",
    "parse_promtext_samples",
    "run_load",
]
