"""The percentile helper names a percentile only with 10 samples beyond it."""

from __future__ import annotations

import pytest

from perfbench.stats import InsufficientSamples, percentile, rank, supports


@pytest.mark.parametrize(
    "q, smallest",
    [(50, 20), (90, 100), (99, 1000)],
)
def test_smallest_sample_that_names_each_percentile(q: float, smallest: int) -> None:
    assert supports(smallest, q)
    assert not supports(smallest - 1, q)
    values = [float(v) for v in range(smallest)]
    assert smallest - rank(smallest, q) == 10
    with pytest.raises(InsufficientSamples):
        percentile(values[:-1], q)


def test_nearest_rank_values() -> None:
    values = [float(v) for v in range(1, 1001)]  # 1..1000, shuffled order irrelevant
    assert percentile(list(reversed(values)), 50) == 500.0
    assert percentile(values, 90) == 900.0
    assert percentile(values, 99) == 990.0


def test_empty_and_out_of_range() -> None:
    assert not supports(0, 50)
    with pytest.raises(InsufficientSamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        rank(10, 100)

