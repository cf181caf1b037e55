"""Layer shims for the traced run: spans around the system's public entry points.

Nothing here changes what a call computes.  Each shim replaces a public
function or method (where its caller looks it up) with a wrapper that
opens a span, calls the original and closes the span.  The shims are
installed only in the traced run; untraced runs execute the system
exactly as users get it.

Span names are the per-layer metric stems:

====================  ==============================================
``codec.parse``        ``repro.serve.codec.parse_predict_request``
``model.predict``      ``DeepMapClassifier.predict_proba``
``features.counts``    ``repro.features.vertex_maps.cached_vertex_counts``
``features.vectorize`` ``FeatureVocabulary.vectorize_rows``
``encode.centrality``  ``repro.core.alignment.centrality_scores``
``encode.union``       ``repro.core.alignment.union_vertex_order``
``encode.rf``          ``repro.core.receptive_field.all_receptive_fields_many``
``encode.assemble``    ``DeepMapEncoder.encode`` (self time = assembly)
``nn.head_fwd``        ``Sequential.forward`` (self time = all but conv1)
``nn.conv1_fwd``       ``Conv1D.forward`` of a network's first layer
``nn.head_bwd``        ``Sequential.backward``
``nn.conv1_bwd``       ``Conv1D.backward`` of a network's first layer
``nn.optim``           ``Optimizer.step`` of every concrete optimizer
``eval.fold``          ``DeepMapClassifier.fit`` (one per CV fold)
``eval.encode``        ``DeepMapClassifier.encode``
``eval.train``         ``Trainer.fit``
====================  ==============================================

Spans named ``trace.*`` are the tracer's own bookkeeping (the tensor
non-zero count); :func:`perfbench.spans.aggregate` keeps them out of
every layer's time.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from perfbench.spans import SpanRecorder

GROUPS = ("serve", "model", "eval")


def _wrap(owner, attr: str, name: str, recorder: SpanRecorder, after=None) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
            if after is not None:
                after(recorder, span, args, result)
            return result

    setattr(owner, attr, wrapper)


def _predict_stats(recorder, span, args, result) -> None:
    span.attrs["graphs"] = len(args[1])


def _tensor_stats(recorder, span, args, result) -> None:
    tensors = result.tensors
    with recorder.span("trace.probe"):
        nnz = int(np.count_nonzero(tensors))
    span.attrs.update(mib=tensors.nbytes / 2**20, nnz=nnz, size=int(tensors.size))


def _install_nn(recorder: SpanRecorder) -> None:
    """Time conv1 apart from the rest of the network, forward and backward.

    ``Sequential`` wrappers keep a per-thread stack of the networks being
    run, so the ``Conv1D`` wrapper can tell the first layer (conv1, the
    one that reads the wide, sparse input tensor) from the narrow
    channel mixers, which stay inside the head's self time.
    """
    from repro.nn.conv1d import Conv1D
    from repro.nn.module import Sequential
    from repro.nn.optimizers import Optimizer

    running = threading.local()

    def network(kind: str, name: str) -> None:
        original = Sequential.__dict__[kind]

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            stack = running.__dict__.setdefault("stack", [])
            stack.append(self)
            try:
                with recorder.span(name):
                    return original(self, *args, **kwargs)
            finally:
                stack.pop()

        setattr(Sequential, kind, wrapper)

    def conv1(kind: str, name: str) -> None:
        original = Conv1D.__dict__[kind]

        @functools.wraps(original)
        def wrapper(self, x, *args, **kwargs):
            stack = getattr(running, "stack", None)
            if not stack or stack[-1].layers[0] is not self:
                return original(self, x, *args, **kwargs)
            with recorder.span(name) as span:
                if kind == "forward":
                    span.attrs["mib"] = (x.nbytes + self.weight.value.nbytes) / 2**20
                return original(self, x, *args, **kwargs)

        setattr(Conv1D, kind, wrapper)

    network("forward", "nn.head_fwd")
    network("backward", "nn.head_bwd")
    conv1("forward", "nn.conv1_fwd")
    conv1("backward", "nn.conv1_bwd")
    for cls in Optimizer.__subclasses__():
        if "step" in cls.__dict__:
            _wrap(cls, "step", "nn.optim", recorder)


def install(recorder: SpanRecorder, groups=GROUPS) -> None:
    """Install the shims of ``groups`` (a subset of :data:`GROUPS`)."""
    unknown = set(groups) - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown shim groups {sorted(unknown)}")
    from repro.core import model as core_model
    from repro.core import pipeline
    from repro.features.vocabulary import FeatureVocabulary
    from repro.nn.model import Trainer

    classifier = core_model.DeepMapClassifier
    if "serve" in groups:
        from repro.serve import http

        _wrap(http, "parse_predict_request", "codec.parse", recorder)
        _wrap(classifier, "predict_proba", "model.predict", recorder, _predict_stats)
    if "model" in groups:
        _wrap(core_model, "cached_vertex_counts", "features.counts", recorder)
        _wrap(FeatureVocabulary, "vectorize_rows", "features.vectorize", recorder)
        _wrap(pipeline, "centrality_scores", "encode.centrality", recorder)
        _wrap(pipeline, "union_vertex_order", "encode.union", recorder)
        _wrap(pipeline, "all_receptive_fields_many", "encode.rf", recorder)
        _wrap(
            pipeline.DeepMapEncoder, "encode", "encode.assemble", recorder, _tensor_stats
        )
        _install_nn(recorder)
    if "eval" in groups:
        _wrap(classifier, "fit", "eval.fold", recorder)
        _wrap(classifier, "encode", "eval.encode", recorder)
        _wrap(Trainer, "fit", "eval.train", recorder)
