"""Tests for sliding-window SLO monitoring and the offline replay."""

import pytest

from repro import obs
from repro.obs.slo import (
    SloConfig,
    SloMonitor,
    build_slo_summary,
    format_slo_summary,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def make_monitor(**overrides) -> tuple[SloMonitor, FakeClock]:
    config = SloConfig(
        latency_p95_ms=overrides.pop("latency_p95_ms", 100.0),
        error_rate_target=overrides.pop("error_rate_target", 0.1),
        window_s=overrides.pop("window_s", 10.0),
        min_samples=overrides.pop("min_samples", 5),
        cooldown_s=overrides.pop("cooldown_s", 5.0),
        **overrides,
    )
    clock = FakeClock()
    return SloMonitor(config, clock=clock), clock


class TestSloConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_p95_ms": 0},
            {"error_rate_target": 0.0},
            {"error_rate_target": 1.0},
            {"window_s": -1},
            {"min_samples": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SloConfig(**kwargs)


class TestSloMonitor:
    def test_starts_ok(self):
        monitor, _ = make_monitor()
        assert monitor.status() == "ok"
        assert not monitor.degraded

    def test_healthy_traffic_stays_ok(self):
        monitor, clock = make_monitor()
        for _ in range(50):
            clock.tick(0.01)
            monitor.observe(0.005, 200)
        assert monitor.status() == "ok"
        snap = monitor.snapshot()
        assert snap["breaches"] == []
        assert snap["window"]["error_rate"] == 0.0

    def test_error_rate_breach_degrades(self):
        monitor, clock = make_monitor()
        for _ in range(10):
            clock.tick(0.01)
            monitor.observe(0.005, 429)
        assert monitor.status() == "degraded"
        snap = monitor.snapshot()
        assert any("errors" in b for b in snap["breaches"])
        assert snap["window"]["burn_rate"] > 1.0

    def test_latency_breach_degrades(self):
        monitor, clock = make_monitor()
        for _ in range(20):
            clock.tick(0.01)
            monitor.observe(0.5, 200)  # 500ms >> 100ms target
        assert monitor.status() == "degraded"
        assert any("latency" in b for b in monitor.snapshot()["breaches"])

    def test_below_min_samples_never_breaches(self):
        monitor, clock = make_monitor(min_samples=5)
        for _ in range(4):
            clock.tick(0.01)
            monitor.observe(10.0, 500)
        assert monitor.status() == "ok"

    def test_recovery_after_window_slides(self):
        monitor, clock = make_monitor(window_s=10.0)
        for _ in range(10):
            clock.tick(0.01)
            monitor.observe(0.005, 503)
        assert monitor.degraded
        clock.tick(11.0)  # the bad samples age out of the window
        for _ in range(10):
            clock.tick(0.01)
            monitor.observe(0.005, 200)
        assert monitor.status() == "ok"

    def test_4xx_client_errors_do_not_spend_budget(self):
        monitor, clock = make_monitor()
        for _ in range(20):
            clock.tick(0.01)
            monitor.observe(0.005, 400)  # malformed requests: server was right
        assert monitor.status() == "ok"

    @pytest.mark.parametrize("status", [429, 500, 503, 504])
    def test_error_statuses_spend_budget(self, status):
        monitor, clock = make_monitor()
        for _ in range(10):
            clock.tick(0.01)
            monitor.observe(0.005, status)
        assert monitor.degraded

    def test_breach_event_and_cooldown(self):
        obs.enable()
        monitor, clock = make_monitor(cooldown_s=100.0)
        for _ in range(20):
            clock.tick(0.01)
            monitor.observe(0.005, 500)
        breaches = obs.get_event_log().records(name="slo_breach")
        # One alert at the flip; the cooldown suppresses the other 14+.
        assert len(breaches) == 1
        assert breaches[0]["attrs"]["breaches"]
        assert obs.get_metrics().counter("slo_alerts_total").value == 1

    def test_recovery_event_emitted(self):
        obs.enable()
        monitor, clock = make_monitor(window_s=5.0)
        for _ in range(10):
            clock.tick(0.01)
            monitor.observe(0.005, 500)
        assert monitor.degraded
        clock.tick(6.0)
        monitor.observe(0.005, 200)
        assert not monitor.degraded
        assert obs.get_event_log().records(name="slo_recovered")

    def test_gauges_published(self):
        obs.enable()
        monitor, clock = make_monitor()
        for _ in range(10):
            clock.tick(0.01)
            monitor.observe(0.02, 200)
        registry = obs.get_metrics()
        assert registry.gauge("slo_latency_p95_ms").value == pytest.approx(20.0)
        assert registry.gauge("slo_error_rate").value == 0.0
        assert registry.gauge("slo_degraded").value == 0.0

    def test_window_memory_bounded(self):
        monitor, clock = make_monitor(max_samples=64)
        for _ in range(1000):
            clock.tick(0.001)
            monitor.observe(0.005, 200)
        assert monitor.snapshot()["window"]["window_count"] <= 64
        assert monitor.total == 1000

    def test_window_percentiles_equal_numpy(self):
        # The sorted window must give np.percentile's numbers exactly,
        # through both eviction paths (age and the sample cap).
        import numpy as np

        rng = np.random.default_rng(0)
        monitor, clock = make_monitor(window_s=1.0, max_samples=40, min_samples=1)
        kept: list[tuple[float, float]] = []
        for _ in range(600):
            clock.tick(float(rng.uniform(0.0, 0.05)))
            latency_s = float(rng.choice([0.004, 0.008, rng.exponential(0.01)]))
            monitor.observe(latency_s, 200)
            kept = [(t, lat) for t, lat in kept if t >= clock.now - 1.0][-39:]
            kept.append((clock.now, latency_s * 1000.0))
            window = monitor.snapshot()["window"]
            values = [lat for _, lat in kept]
            assert window["window_count"] == len(values)
            for q in (50, 95, 99):
                assert window[f"p{q}_ms"] == float(np.percentile(values, q))

    def test_window_error_count_follows_evictions(self):
        monitor, clock = make_monitor(window_s=10.0, max_samples=8)
        for _ in range(8):
            clock.tick(0.01)
            monitor.observe(0.005, 500)
        for _ in range(6):
            clock.tick(0.01)
            monitor.observe(0.005, 200)
        assert monitor.snapshot()["window"]["window_errors"] == 2

    def test_snapshot_is_json_shaped(self):
        import json

        monitor, clock = make_monitor()
        clock.tick(0.01)
        monitor.observe(0.005, 200)
        json.dumps(monitor.snapshot())  # must not raise


def _access(status, duration_ms):
    return {
        "kind": "event",
        "name": "http_access",
        "attrs": {"status": status, "duration_ms": duration_ms},
    }


class TestOfflineSummary:
    def test_replays_access_log(self):
        records = [_access(200, 5.0)] * 30 + [_access(429, 1.0)] * 10
        summary = build_slo_summary(records, SloConfig(error_rate_target=0.05))
        assert summary["status"] == "degraded"
        assert summary["window"]["window_count"] == 40
        assert summary["window"]["error_rate"] == pytest.approx(0.25)
        assert summary["statuses"] == {"200": 30, "429": 10}

    def test_clean_run_is_ok(self):
        records = [_access(200, 5.0)] * 30
        summary = build_slo_summary(records)
        assert summary["status"] == "ok"
        assert summary["breaches"] == []

    def test_ignores_non_access_records(self):
        records = [
            {"kind": "span", "name": "request", "attrs": {"status": 500}},
            {"kind": "event", "name": "epoch", "attrs": {"status": 500}},
        ]
        summary = build_slo_summary(records)
        assert summary["window"]["window_count"] == 0

    def test_format_mentions_breaches(self):
        records = [_access(500, 5.0)] * 30
        text = format_slo_summary(build_slo_summary(records))
        assert "DEGRADED" in text
        assert "status counts" in text

    def test_format_ok(self):
        text = format_slo_summary(build_slo_summary([_access(200, 2.0)] * 30))
        assert "SLO status: ok" in text
