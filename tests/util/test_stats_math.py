"""Tests for the aggregate statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.stats_math import (
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    median,
    median_abs_deviation,
    normalize,
    percentile,
    robust_zscores,
    speedup,
    value_range,
)


def test_geometric_mean_known_value():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([1.0, -2.0])


def test_harmonic_mean_known_value():
    assert harmonic_mean([1.0, 1.0]) == pytest.approx(1.0)
    assert harmonic_mean([2.0, 6.0]) == pytest.approx(3.0)


def test_arithmetic_mean():
    assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        arithmetic_mean([])


def test_normalize_to_baseline():
    values = {"bl": 2.0, "dla": 1.0, "r3": 0.5}
    normalized = normalize(values, "bl")
    assert normalized == {"bl": 1.0, "dla": 0.5, "r3": 0.25}


def test_normalize_errors():
    with pytest.raises(KeyError):
        normalize({"a": 1.0}, "missing")
    with pytest.raises(ZeroDivisionError):
        normalize({"a": 0.0, "b": 1.0}, "a")


def test_value_range():
    assert value_range([3.0, 1.0, 2.0]) == (1.0, 3.0)
    with pytest.raises(ValueError):
        value_range([])


def test_speedup():
    assert speedup(200.0, 100.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speedup(0.0, 10.0)
    with pytest.raises(ValueError):
        speedup(10.0, 0.0)


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == pytest.approx(1.0)
    assert percentile(values, 1.0) == pytest.approx(4.0)
    assert percentile(values, 0.5) == pytest.approx(2.5)   # linear midpoint
    assert percentile([7.0], 0.9) == pytest.approx(7.0)
    # Order-independent: percentile sorts internally.
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        percentile([1.0], -0.1)


def test_median_and_mad():
    assert median([5.0, 1.0, 3.0]) == pytest.approx(3.0)
    assert median([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
    # values 1..5 around median 3: abs deviations [2,1,0,1,2] -> MAD 1
    assert median_abs_deviation([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_robust_zscores_flags_the_outlier():
    values = [1.0, 1.1, 0.9, 1.0, 10.0]
    scores = robust_zscores(values)
    assert scores[-1] > 3.5                       # the outlier stands out
    assert all(abs(s) < 3.5 for s in scores[:-1])  # the bulk does not


def test_robust_zscores_zero_mad_reports_no_outliers():
    # More than half identical -> MAD 0 -> no robust discrimination.
    assert robust_zscores([2.0, 2.0, 2.0, 9.0]) == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        robust_zscores([])


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=50))
def test_mean_ordering_property(values):
    """Harmonic mean <= geometric mean <= arithmetic mean."""
    hm = harmonic_mean(values)
    gm = geometric_mean(values)
    am = arithmetic_mean(values)
    assert hm <= gm + 1e-9
    assert gm <= am + 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=1000.0), min_size=1, max_size=30),
       st.floats(min_value=0.1, max_value=10.0))
def test_geometric_mean_scaling_property(values, factor):
    """gm(k * x) == k * gm(x)."""
    scaled = [v * factor for v in values]
    assert geometric_mean(scaled) == pytest.approx(factor * geometric_mean(values), rel=1e-6)
