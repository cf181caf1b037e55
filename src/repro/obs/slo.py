"""Sliding-window SLO monitoring: latency quantiles, error budget, alerts.

A serving process has two contractual numbers: how slow it may be
(latency objective, here a p95 target) and how often it may fail
(availability objective, an error-rate target whose complement is the
*error budget*).  :class:`SloMonitor` tracks both over a sliding time
window of recent requests:

* streaming p50/p95/p99 over the window (bounded memory: the window is
  capped at ``max_samples`` most-recent observations).  The window's
  latencies are also kept sorted, so each observation costs a bisect
  rather than a full percentile pass: the cost of a request must not
  grow as the window fills;
* error rate and *burn rate* — observed error rate divided by the
  budgeted rate, so ``burn > 1`` means the budget is being spent faster
  than it accrues;
* a breach latch with hysteresis: the status flips to ``degraded`` when
  any objective is violated (after ``min_samples`` observations, so a
  single slow request on a cold server cannot page anyone) and emits a
  structured ``slo_breach`` event (rate-limited by ``cooldown_s``);
  recovery emits ``slo_recovered``.

The monitor mirrors its state into ``slo_*`` gauges on every
observation, so ``GET /metrics`` and ``GET /healthz`` expose the same
numbers a dashboard would alert on.

Offline, :func:`build_slo_summary` replays the ``http_access`` events of
a JSONL run log through the same arithmetic (over the whole run rather
than a sliding window) — ``repro ops slo run.jsonl`` prints it.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "SloConfig",
    "SloMonitor",
    "build_slo_summary",
    "format_slo_summary",
]

#: Statuses that spend error budget: server-side failures and shed
#: requests.  429 counts because a shed request is still a user who got
#: no answer; 4xx client errors do not (the server behaved correctly).
ERROR_STATUSES = frozenset({429, 500, 503, 504})


def _is_error(status: int) -> bool:
    return status in ERROR_STATUSES or status >= 500


@dataclass(frozen=True)
class SloConfig:
    """Objectives and window shape for one :class:`SloMonitor`."""

    latency_p95_ms: float = 500.0
    error_rate_target: float = 0.01
    window_s: float = 60.0
    min_samples: int = 20
    cooldown_s: float = 5.0
    max_samples: int = 4096

    def __post_init__(self) -> None:
        if self.latency_p95_ms <= 0:
            raise ValueError(f"latency_p95_ms must be > 0, got {self.latency_p95_ms}")
        if not 0 < self.error_rate_target < 1:
            raise ValueError(
                f"error_rate_target must be in (0, 1), got {self.error_rate_target}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")


def _percentile_sorted(values: list[float], q: float) -> float:
    """``np.percentile(values, q)`` (linear method) of an ascending list.

    The same arithmetic as numpy's, so the two agree bitwise.
    """
    n = len(values)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        return values[-1]
    lo = math.floor(virtual)
    gamma = virtual - lo
    a, b = values[lo], values[lo + 1]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


class SloMonitor:
    """Tracks request outcomes against an :class:`SloConfig`.

    Thread-safe: handler threads call :meth:`observe` concurrently; the
    health endpoint calls :meth:`snapshot`.
    """

    def __init__(self, config: SloConfig | None = None, clock=time.monotonic) -> None:
        self.config = config or SloConfig()
        self._clock = clock
        #: (ts, latency_ms, is_error) most-recent-last.
        self._window: deque[tuple[float, float, bool]] = deque()
        #: The window's latencies in ascending order, and its error count.
        self._sorted: list[float] = []
        self._window_errors = 0
        self._lock = threading.Lock()
        self._degraded = False
        self._last_alert_at = -float("inf")
        self.total = 0
        self.total_errors = 0

    # -- recording ------------------------------------------------------
    def observe(self, latency_s: float, status: int) -> None:
        """Record one finished request and re-evaluate the objectives."""
        now = self._clock()
        error = _is_error(int(status))
        latency_ms = float(latency_s) * 1000.0
        with self._lock:
            if len(self._window) >= self.config.max_samples:
                self._evict()
            self._window.append((now, latency_ms, error))
            bisect.insort(self._sorted, latency_ms)
            self._window_errors += error
            self._trim(now)
            self.total += 1
            self.total_errors += int(error)
            stats = self._stats()
        self._publish(stats)
        self._evaluate(stats, now)

    def _evict(self) -> None:
        _, latency_ms, error = self._window.popleft()
        del self._sorted[bisect.bisect_left(self._sorted, latency_ms)]
        self._window_errors -= error

    def _trim(self, now: float) -> None:
        horizon = now - self.config.window_s
        while self._window and self._window[0][0] < horizon:
            self._evict()

    # -- derived state (lock held by callers of _stats) -----------------
    def _stats(self) -> dict:
        latencies = self._sorted
        errors = self._window_errors
        count = len(self._window)
        if latencies:
            p50, p95, p99 = (_percentile_sorted(latencies, q) for q in (50, 95, 99))
        else:
            p50 = p95 = p99 = 0.0
        error_rate = errors / count if count else 0.0
        return {
            "window_count": count,
            "window_errors": errors,
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "error_rate": error_rate,
            "burn_rate": error_rate / self.config.error_rate_target,
        }

    def _breaches(self, stats: dict) -> list[str]:
        if stats["window_count"] < self.config.min_samples:
            return []
        breaches = []
        if stats["p95_ms"] > self.config.latency_p95_ms:
            breaches.append(
                f"latency: p95 {stats['p95_ms']:.1f}ms > "
                f"target {self.config.latency_p95_ms:g}ms"
            )
        if stats["error_rate"] > self.config.error_rate_target:
            breaches.append(
                f"errors: rate {stats['error_rate']:.3f} > "
                f"target {self.config.error_rate_target:g} "
                f"(budget burn {stats['burn_rate']:.1f}x)"
            )
        return breaches

    def _publish(self, stats: dict) -> None:
        from repro import obs

        registry = obs.get_metrics()
        if not registry.enabled:
            return
        registry.gauge("slo_latency_p50_ms").set(stats["p50_ms"])
        registry.gauge("slo_latency_p95_ms").set(stats["p95_ms"])
        registry.gauge("slo_latency_p99_ms").set(stats["p99_ms"])
        registry.gauge("slo_error_rate").set(stats["error_rate"])
        registry.gauge("slo_burn_rate").set(stats["burn_rate"])
        registry.gauge("slo_degraded").set(1.0 if self._degraded else 0.0)
        registry.describe("slo_latency_p95_ms", "Sliding-window p95 latency.")
        registry.describe("slo_error_rate", "Sliding-window error fraction.")
        registry.describe(
            "slo_burn_rate", "Error rate over budgeted rate (>1 burns budget)."
        )
        registry.describe("slo_degraded", "1 while any SLO objective is breached.")

    def _evaluate(self, stats: dict, now: float) -> None:
        from repro import obs

        breaches = self._breaches(stats)
        with self._lock:
            was_degraded = self._degraded
            self._degraded = bool(breaches)
            alert = False
            if breaches and (
                not was_degraded
                or now - self._last_alert_at >= self.config.cooldown_s
            ):
                alert = True
                self._last_alert_at = now
        if alert:
            obs.counter("slo_alerts_total").inc()
            obs.event(
                "slo_breach",
                breaches=breaches,
                p95_ms=stats["p95_ms"],
                error_rate=stats["error_rate"],
                burn_rate=stats["burn_rate"],
                window_count=stats["window_count"],
            )
        elif was_degraded and not breaches:
            obs.event("slo_recovered", window_count=stats["window_count"])
        obs.get_metrics().gauge("slo_degraded").set(1.0 if self._degraded else 0.0)

    # -- inspection -----------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self._degraded

    def status(self) -> str:
        return "degraded" if self._degraded else "ok"

    def snapshot(self) -> dict:
        """JSON-safe state for ``/healthz`` (objectives + live window)."""
        with self._lock:
            self._trim(self._clock())
            stats = self._stats()
        return {
            "status": self.status(),
            "breaches": self._breaches(stats),
            "objectives": asdict(self.config),
            "window": stats,
            "lifetime": {"requests": self.total, "errors": self.total_errors},
        }


# ----------------------------------------------------------------------
# Offline summary (repro ops slo)
# ----------------------------------------------------------------------

def build_slo_summary(records: list[dict], config: SloConfig | None = None) -> dict:
    """Evaluate a whole run's ``http_access`` events against ``config``.

    Unlike the live monitor there is no sliding window — the run file is
    the window.  Returns a dict shaped like :meth:`SloMonitor.snapshot`
    plus per-status counts.
    """
    config = config or SloConfig()
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    errors = 0
    for record in records:
        if record.get("kind") != "event" or record.get("name") != "http_access":
            continue
        attrs = record.get("attrs", {})
        status = int(attrs.get("status", 0))
        statuses[status] = statuses.get(status, 0) + 1
        latencies.append(float(attrs.get("duration_ms", 0.0)))
        errors += int(_is_error(status))
    count = len(latencies)
    if latencies:
        p50, p95, p99 = (float(np.percentile(latencies, q)) for q in (50, 95, 99))
    else:
        p50 = p95 = p99 = 0.0
    error_rate = errors / count if count else 0.0
    stats = {
        "window_count": count,
        "window_errors": errors,
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": p99,
        "error_rate": error_rate,
        "burn_rate": error_rate / config.error_rate_target,
    }
    breaches = []
    if count >= config.min_samples:
        if p95 > config.latency_p95_ms:
            breaches.append(
                f"latency: p95 {p95:.1f}ms > target {config.latency_p95_ms:g}ms"
            )
        if error_rate > config.error_rate_target:
            breaches.append(
                f"errors: rate {error_rate:.3f} > target "
                f"{config.error_rate_target:g} (budget burn {stats['burn_rate']:.1f}x)"
            )
    return {
        "status": "degraded" if breaches else "ok",
        "breaches": breaches,
        "objectives": asdict(config),
        "window": stats,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
    }


def format_slo_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`build_slo_summary` output."""
    window = summary["window"]
    objectives = summary["objectives"]
    lines = [
        f"requests: {window['window_count']}  errors: {window['window_errors']}  "
        f"error rate: {window['error_rate']:.4f} "
        f"(target {objectives['error_rate_target']:g}, "
        f"burn {window['burn_rate']:.2f}x)",
        f"latency ms: p50 {window['p50_ms']:.2f}  p95 {window['p95_ms']:.2f}  "
        f"p99 {window['p99_ms']:.2f}  (p95 target {objectives['latency_p95_ms']:g}ms)",
    ]
    statuses = summary.get("statuses")
    if statuses:
        described = "  ".join(f"{k}: {v}" for k, v in statuses.items())
        lines.append(f"status counts: {described}")
    if summary["breaches"]:
        lines.append("SLO status: DEGRADED")
        for breach in summary["breaches"]:
            lines.append(f"  - {breach}")
    else:
        lines.append("SLO status: ok")
    return "\n".join(lines)
