"""Open-loop load generation timed from each request's due time.

Request ``i`` is due at ``t0 + i / rate`` whether or not earlier
requests have finished.  A fixed set of sender threads (each owning one
keep-alive connection) takes requests in due order; when every sender
is busy, the next request goes out late.  Its latency is measured from
when it was *due*, so a stall on one request is charged to every
request queued behind it, and the lateness itself is reported.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def late(self) -> float:
        """How long after its due time the request went out."""
        return max(0.0, self.sent - self.due)

    @property
    def latency(self) -> float:
        """Due time to completion."""
        return self.done - self.due


def run_open_loop(
    senders: list[Callable[[int], bool]],
    rate: float,
    count: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send ``count`` requests at ``rate`` per second; one thread per sender.

    ``senders[k](i)`` performs request ``i`` on sender ``k``'s own
    connection and returns whether it succeeded (an exception counts as
    a failure).  Samples come back in index order.
    """
    if rate <= 0 or count < 1 or not senders:
        raise ValueError("need rate > 0, count >= 1 and at least one sender")
    samples: list[Sample | None] = [None] * count
    lock = threading.Lock()
    next_index = [0]
    t0 = clock()

    def worker(send: Callable[[int], bool]) -> None:
        while True:
            with lock:
                i = next_index[0]
                if i >= count:
                    return
                next_index[0] = i + 1
            due = t0 + i / rate
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                ok = bool(send(i))
            except Exception:  # noqa: BLE001 - a failed request is a sample
                ok = False
            samples[i] = Sample(i, due, sent, clock(), ok)

    if len(senders) == 1:
        worker(senders[0])
    else:
        threads = [
            threading.Thread(target=worker, args=(s,), daemon=True) for s in senders
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return [s for s in samples if s is not None]


def lateness_grows(samples: list[Sample], limit_s: float) -> bool:
    """True when the last third of a step runs later than the first third
    by more than ``limit_s`` on average: the backlog is growing."""
    third = len(samples) // 3
    if third == 0:
        return False
    head = sum(s.late for s in samples[:third]) / third
    tail = sum(s.late for s in samples[-third:]) / third
    return tail - head > limit_s
