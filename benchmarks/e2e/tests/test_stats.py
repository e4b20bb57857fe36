import pytest

from benchmarks.e2e.common import nearest_rank, samples_beyond, spread


def test_nearest_rank_picks_a_sample():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 100) == 10
    assert nearest_rank(values, 1) == 1
    assert nearest_rank([42.0], 90) == 42.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1, 2], 0)


@pytest.mark.parametrize(
    "count, pct, beyond",
    [(100, 90, 10), (99, 90, 9), (200, 95, 10), (199, 95, 9), (600, 95, 30), (1, 90, 0)],
)
def test_samples_beyond_the_tail(count, pct, beyond):
    # p90 needs 100 samples and p95 200 to keep ten beyond them.
    assert samples_beyond(count, pct) == beyond


def test_spread_is_quartile_distance_over_median():
    stats = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["spread"] == pytest.approx((stats["q3"] - stats["q1"]) / 3.0)
