import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_min_samples_matches_the_rule():
    assert stats.min_samples(95.0) == 200
    assert stats.min_samples(99.0) == 1000
    for p in stats.TAIL_PERCENTILES:
        n = stats.min_samples(p)
        assert stats.beyond(n, p) >= stats.MIN_BEYOND
        assert stats.beyond(n - 1, p) < stats.MIN_BEYOND


def test_percentile_is_nearest_rank_with_ten_beyond():
    values = list(range(1, 201))
    assert stats.percentile(values, 95.0) == 190
    assert sum(v > 190 for v in values) == 10


def test_percentile_refuses_an_unsupported_tail():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(range(199), 95.0)
    assert stats.percentile(range(199), 90.0) == 179

