"""The shims time layers without changing what they compute.

Run in a subprocess: installing shims patches the system's modules for
the life of the process.
"""

import json
import os
import subprocess
import sys

from perfbench.run import ROOT

SCRIPT = r"""
import json, sys
import numpy as np
from repro.core.model import deepmap_wl
from repro.datasets import make_dataset
from perfbench.shims import install
from perfbench.spans import SpanRecorder, aggregate
from perfbench.workloads import layer_metrics

ds = make_dataset("MUTAG", scale=0.08, seed=0)
model = deepmap_wl(h=2, r=3, epochs=2, seed=0).fit(ds.graphs, ds.y)
plain = model.predict_proba(ds.graphs[:8])
rec = SpanRecorder()
install(rec, ("serve", "model"))
traced = model.predict_proba(ds.graphs[:8])
served_until = rec.spans[-1].end  # the model.predict span closes last
model.fit(ds.graphs[:20], ds.y[:20])
m = layer_metrics(rec.spans, (-np.inf, served_until), "model.predict")
parts = ["model.self_ms", "features.counts_ms", "features.vectorize_ms",
         "encode.centrality_ms", "encode.union_ms", "encode.rf_ms",
         "encode.assemble_ms", "nn.conv1_fwd_ms", "nn.head_fwd_ms"]
totals = aggregate(rec.spans)
print(json.dumps({
    "same": plain.tobytes() == traced.tobytes(),
    "predict_ms": m["model.predict_ms"],
    "parts_ms": sum(m[p] for p in parts),
    "graphs_per_pass": m["batcher.graphs_per_pass"],
    "centrality_calls": m["encode.centrality_calls"],
    "conv1_fwd_calls": totals["nn.conv1_fwd"].calls,
    "head_fwd_calls": totals["nn.head_fwd"].calls,
    "bwd": totals["nn.conv1_bwd"].calls,
    "optim": totals["nn.optim"].calls,
    "nnz_share": m["encode.nnz_share"],
}))
"""


def test_shims_time_layers_and_preserve_outputs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["same"]
    # Self times of everything under predict_proba add up to its total.
    assert abs(out["predict_ms"] - out["parts_ms"]) <= 1e-6 * out["predict_ms"]
    assert out["graphs_per_pass"] == 8
    assert out["centrality_calls"] == 8  # one per graph, inside the window
    # conv1 is timed once per forward pass, not once per Conv1D layer.
    assert out["conv1_fwd_calls"] == out["head_fwd_calls"]
    assert out["bwd"] == out["optim"] > 0
    assert 0 < out["nnz_share"] < 1
