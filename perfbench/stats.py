"""Order statistics with an explicit sample-size rule.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; otherwise the "p95" of a short run is just its
largest value, and the number moves with one outlier.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles the benchmark may report, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def beyond(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank ``p``-th percentile of ``n``."""
    return n - math.ceil(p / 100.0 * n)


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with ``MIN_BEYOND`` samples
    beyond it in a sample of ``n``, or ``None`` when none qualifies."""
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def min_samples(p: float) -> int:
    """Smallest sample size whose nearest-rank ``p``-th percentile has
    ``MIN_BEYOND`` samples beyond it."""
    n = MIN_BEYOND
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; refuses tails the sample cannot support."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise InsufficientSamples("no samples")
    if p > 50.0 and beyond(n, p) < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{p:g} needs {min_samples(p)} samples to have {MIN_BEYOND} "
            f"beyond it; got {n}"
        )
    return ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def median(values) -> float:
    return float(statistics.median(values))

