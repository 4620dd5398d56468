import pytest

from perfbench.stats import percentile, quartiles, relative_spread, tail_percentile


@pytest.mark.parametrize("n, expected", [(100, 90.0), (400, 97.5), (20, 50.0), (11, 100 / 11)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == pytest.approx(expected)
    values = list(range(n))
    beyond = [v for v in values if v > percentile(values, p)]
    assert len(beyond) == 10


@pytest.mark.parametrize("n", [0, 5, 10])
def test_tail_percentile_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        tail_percentile(n)


def test_tail_is_the_highest_such_percentile():
    n = 280
    values = list(range(n))
    p = tail_percentile(n)
    assert len([v for v in values if v > percentile(values, p)]) >= 10
    assert len([v for v in values if v > percentile(values, p + 0.5)]) < 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1


def test_quartiles_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert q2 == 5.5
    assert relative_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
