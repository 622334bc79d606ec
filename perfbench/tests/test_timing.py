"""Timing-summary helper: median, nearest-rank p90 and its resolution."""

import pytest

from timing import MIN_BEYOND, min_samples, summarize


def test_hundred_samples_resolve_p90_with_ten_beyond():
    s = summarize([float(i) for i in range(1, 101)])
    assert s.n == 100
    assert s.median == 50.5
    assert s.p90 == 90.0
    assert s.n_beyond_p90 == 10
    assert s.p90_resolved


def test_p90_with_fewer_than_ten_beyond_is_unresolved():
    s = summarize([float(i) for i in range(99)])
    assert s.n_beyond_p90 == 9
    assert s.p90 is None
    assert not s.p90_resolved
    assert "unresolved" in s.describe("ms")


def test_order_of_samples_does_not_matter():
    data = [5.0, 1.0, 3.0, 2.0, 4.0] * 40
    assert summarize(data) == summarize(sorted(data))


def test_min_samples_matches_the_resolution_rule():
    n = min_samples()
    assert n == 100
    assert summarize([1.0] * n).p90_resolved
    assert not summarize([1.0] * (n - 1)).p90_resolved
    assert min_samples(min_beyond=1) == 10
    assert MIN_BEYOND == 10


def test_describe_scales_and_counts():
    line = summarize([0.001 * i for i in range(1, 201)]).describe("ms", 1e3)
    assert "n=200" in line and "20 beyond p90" in line
    assert "p90 180 ms" in line


def test_empty_series_is_rejected():
    with pytest.raises(ValueError):
        summarize([])
