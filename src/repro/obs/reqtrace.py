"""Request-scoped tracing: trace ids, waterfalls, and the live trace store.

Every request entering the serving stack gets a *trace id* — either
minted at HTTP ingress or supplied by the client in the
``X-Repro-Trace-Id`` header — that is carried through admission, the
micro-batcher queue, the fused forward pass, and response
serialisation.  The handler decomposes the request's latency into four
child spans::

    request                      # root, attrs: trace_id, endpoint, model, status
      queue_wait                 # admission -> picked into a batch
      batch_wait                 # picked -> fused forward pass starts
      infer                      # the fused forward pass (shared with batchmates)
      serialize                  # response encoding (ends before the write)

The fan-in is recorded as *span links*: the batcher's ``serve_batch``
span carries the trace ids of every request fused into it (and each
request span carries the ``batch_id``), so N request spans and 1 batch
span cross-reference without pretending a tree relationship that does
not exist.

Two consumers reconstruct waterfalls from those spans:

* the live ``GET /v1/traces/<id>`` endpoint reads this module's
  :class:`TraceStore` (a bounded ring of recently finished traces);
* ``repro ops trace <id> run.jsonl`` rebuilds the identical record from
  the JSONL event log via :func:`build_waterfall`.

Both render through :func:`format_waterfall`.

The same four durations travel back to the client on every predict
response as a ``Server-Timing`` header (:func:`format_server_timing` /
:func:`parse_server_timing`), so a client can split its own latency into
server-accounted time and the unaccounted rest (request read and parse,
transport).
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict

__all__ = [
    "SERVER_TIMING_HEADER",
    "TRACE_HEADER",
    "TraceStore",
    "build_waterfall",
    "format_server_timing",
    "format_waterfall",
    "list_traces",
    "new_trace_id",
    "parse_server_timing",
    "valid_trace_id",
]

#: HTTP header carrying the trace id (request: optional, supplied by the
#: client; response: always echoed).
TRACE_HEADER = "X-Repro-Trace-Id"

#: Client-supplied ids must be hex-ish and bounded so they are safe to
#: echo into logs, JSON, and metrics labels.
_TRACE_ID_RE = re.compile(r"^[0-9a-fA-F][0-9a-fA-F-]{7,63}$")

#: Response header carrying the request's stage durations (W3C
#: Server-Timing syntax: ``name;dur=<milliseconds>``, comma-separated).
SERVER_TIMING_HEADER = "Server-Timing"

#: Stage names that make up a request waterfall, in timeline order.
WATERFALL_STAGES = ("queue_wait", "batch_wait", "infer", "serialize")


def format_server_timing(stages: list[dict]) -> str:
    """``Server-Timing`` value for waterfall stages (``duration_s`` each)."""
    return ", ".join(
        f"{stage['name']};dur={stage['duration_s'] * 1000.0:.3f}" for stage in stages
    )


def parse_server_timing(value: str | None) -> dict[str, float]:
    """Stage name -> milliseconds from a ``Server-Timing`` value.

    Entries without a parseable ``dur`` parameter are skipped, so a
    header from another server degrades to fewer stages, never an error.
    """
    timings: dict[str, float] = {}
    for entry in (value or "").split(","):
        name, *params = (part.strip() for part in entry.split(";"))
        for param in params:
            key, _, raw = param.partition("=")
            if key.strip().lower() != "dur":
                continue
            try:
                timings[name] = float(raw.strip().strip('"'))
            except ValueError:
                pass
            break
    return timings


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


def valid_trace_id(value: str | None) -> bool:
    """Whether a client-supplied id is acceptable to adopt and echo."""
    return bool(value) and _TRACE_ID_RE.match(value) is not None


class TraceStore:
    """Bounded, thread-safe ring of recently finished request traces.

    Maps ``trace_id`` to one waterfall record (see
    :func:`build_waterfall` for the shape).  Oldest entries fall off
    when ``capacity`` is exceeded; re-putting an id refreshes it.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._traces: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def put(self, trace_id: str, record: dict) -> None:
        with self._lock:
            self._traces.pop(trace_id, None)
            self._traces[trace_id] = record
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> list[str]:
        """Stored trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        return len(self._traces)


# ----------------------------------------------------------------------
# Offline reconstruction (repro ops trace / traces)
# ----------------------------------------------------------------------

def _request_spans(records: list[dict]) -> list[dict]:
    return [
        r
        for r in records
        if r.get("kind") == "span"
        and r.get("name") == "request"
        and (r.get("attrs") or {}).get("trace_id")
    ]


def list_traces(records: list[dict]) -> list[dict]:
    """One summary row per request span in a JSONL run, in log order."""
    rows = []
    for record in _request_spans(records):
        attrs = record.get("attrs") or {}
        rows.append(
            {
                "trace_id": attrs["trace_id"],
                "endpoint": attrs.get("endpoint", "?"),
                "model": attrs.get("model"),
                "status": attrs.get("status"),
                "batch_id": attrs.get("batch_id"),
                "duration_s": float(record.get("duration_s", 0.0)),
            }
        )
    return rows


def build_waterfall(records: list[dict], trace_id: str) -> dict | None:
    """Reconstruct one trace's waterfall record from JSONL records.

    Returns the same shape the live :class:`TraceStore` holds: the
    ``request`` span supplies the envelope (endpoint, model, status,
    batch id, total duration); its child spans — matched by
    ``trace_id`` attr and path ``request/<stage>`` — supply the staged
    timeline.  ``None`` when the id never appears.
    """
    envelope = None
    stages: list[dict] = []
    for record in records:
        if record.get("kind") != "span":
            continue
        attrs = record.get("attrs") or {}
        if attrs.get("trace_id") != trace_id:
            continue
        name = record.get("name")
        if name == "request":
            envelope = record
        elif name in WATERFALL_STAGES:
            stages.append(
                {
                    "name": name,
                    "offset_s": float(attrs.get("offset_s", 0.0)),
                    "duration_s": float(record.get("duration_s", 0.0)),
                }
            )
    if envelope is None:
        return None
    attrs = envelope.get("attrs") or {}
    stages.sort(key=lambda s: s["offset_s"])
    return {
        "trace_id": trace_id,
        "endpoint": attrs.get("endpoint", "?"),
        "model": attrs.get("model"),
        "status": attrs.get("status"),
        "batch_id": attrs.get("batch_id"),
        "ts": envelope.get("ts"),
        "duration_s": float(envelope.get("duration_s", 0.0)),
        "spans": stages,
    }


def format_waterfall(record: dict, width: int = 40) -> str:
    """ASCII waterfall of one trace record (live or reconstructed)."""
    total = max(float(record.get("duration_s") or 0.0), 1e-9)
    header = (
        f"trace {record['trace_id']}  {record.get('endpoint', '?')}"
        + (f"  model={record['model']}" if record.get("model") else "")
        + (f"  status={record['status']}" if record.get("status") is not None else "")
        + (f"  batch={record['batch_id']}" if record.get("batch_id") else "")
        + f"  total {total * 1000:.2f}ms"
    )
    lines = [header]
    spans = record.get("spans") or []
    if not spans:
        lines.append("  (no stage spans recorded)")
        return "\n".join(lines)
    name_width = max(len(s["name"]) for s in spans)
    accounted = 0.0
    for span in spans:
        offset = float(span.get("offset_s", 0.0))
        duration = float(span.get("duration_s", 0.0))
        accounted += duration
        left = min(width, int(round(width * offset / total)))
        bar = max(1, int(round(width * duration / total)))
        bar = min(bar, width - left) or 1
        lane = " " * left + "#" * bar
        lines.append(
            f"  {span['name']:<{name_width}s} |{lane:<{width}s}| "
            f"{duration * 1000:8.2f}ms @ +{offset * 1000:.2f}ms"
        )
    lines.append(
        f"  {'(accounted)':<{name_width + 2}s} {accounted * 1000:.2f}ms of "
        f"{total * 1000:.2f}ms ({100.0 * accounted / total:.1f}%)"
    )
    return "\n".join(lines)
