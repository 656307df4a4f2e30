"""The percentile rule: report the highest percentile with ten samples beyond."""

import pytest

from benchlib.stats import percentile, supported_percentile


def beyond(values, q):
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def test_thousand_samples_support_p99():
    values = list(range(1, 1001))
    assert supported_percentile(1000) == pytest.approx(99.0)
    assert percentile(values, 99) == 990
    assert beyond(values, 99) == 10


@pytest.mark.parametrize("n", [11, 57, 440, 999, 1000, 1355, 4096])
def test_supported_percentile_leaves_ten_beyond(n):
    values = list(range(n))
    q = supported_percentile(n)
    assert beyond(values, q) >= 10
    # Any higher percentile would leave fewer than ten samples beyond.
    assert beyond(values, q + 100.0 / n) < 10


def test_too_few_samples_support_no_percentile():
    assert supported_percentile(10) is None
    assert supported_percentile(0) is None


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([5.0, 1.0, 3.0], 100) == 5.0
    assert percentile([5.0, 1.0, 3.0], 1) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)
