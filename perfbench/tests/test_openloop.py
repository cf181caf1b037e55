import threading

import pytest

from perfbench.openloop import Sample, lateness_grows, run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, dt):
        assert dt > 0
        self.now += dt


def serving(clock, seconds):
    def send(i):
        clock.now += seconds
        return True

    return send


def test_requests_are_timed_from_due_time_behind_a_stall():
    clock = FakeClock()
    samples = run_open_loop(
        [serving(clock, 0.25)], rate=10.0, count=4, clock=clock, sleep=clock.sleep
    )
    assert [s.due - 100.0 for s in samples] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert [s.late for s in samples] == pytest.approx([0.0, 0.15, 0.3, 0.45])
    assert [s.latency for s in samples] == pytest.approx([0.25, 0.4, 0.55, 0.7])
    assert lateness_grows(samples, 0.01)


def test_under_capacity_nothing_is_late():
    clock = FakeClock()
    samples = run_open_loop(
        [serving(clock, 0.05)], rate=10.0, count=6, clock=clock, sleep=clock.sleep
    )
    assert [s.late for s in samples] == pytest.approx([0.0] * 6)
    assert [s.latency for s in samples] == pytest.approx([0.05] * 6)
    assert clock.now - 100.0 == pytest.approx(0.55)
    assert not lateness_grows(samples, 0.01)


def test_a_failed_request_is_a_sample_not_an_abort():
    clock = FakeClock()

    def send(i):
        clock.now += 0.01
        if i == 1:
            raise ConnectionError("reset")
        return True

    samples = run_open_loop([send], rate=10.0, count=3, clock=clock, sleep=clock.sleep)
    assert [s.ok for s in samples] == [True, False, True]


def test_every_request_is_sent_once_across_senders():
    sent = []
    lock = threading.Lock()

    def sender(i):
        with lock:
            sent.append(i)
        return True

    samples = run_open_loop([sender, sender, sender], rate=2000.0, count=50)
    assert sorted(sent) == list(range(50))
    assert [s.index for s in samples] == list(range(50))
    assert all(s.done >= s.sent >= s.due - 1e-3 for s in samples)


def test_lateness_growth_compares_first_and_last_thirds():
    flat = [Sample(i, 0.0, 0.002, 0.01, True) for i in range(9)]
    assert not lateness_grows(flat, 0.001)
    rising = [Sample(i, 0.0, 0.01 * i, 1.0, True) for i in range(9)]
    assert lateness_grows(rising, 0.01)
