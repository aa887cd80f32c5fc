import math

import pytest

from agglolab import Problem, bound_value, render_bound
from agglolab.bounds import LEVELS


def test_discrete_radius_at_k_values():
    # 20d + 2 log2(k) + 2
    assert bound_value(Problem.DISCRETE_RADIUS, 4, 1) == 26.0
    assert bound_value(Problem.DISCRETE_RADIUS, 1, 1) == 22.0
    assert bound_value(Problem.DISCRETE_RADIUS, 8, 2) == 48.0


def test_discrete_radius_two_k_values():
    assert bound_value(Problem.DISCRETE_RADIUS, 4, 2, "two-k") == 40.0
    assert bound_value(Problem.DISCRETE_RADIUS, 99, 1, "two-k") == 20.0


def test_radius_two_k_value():
    assert bound_value(Problem.RADIUS, 3, 1, "two-k") == pytest.approx(
        24.0 * math.exp(24.0), rel=1e-12
    )
    assert bound_value(Problem.RADIUS, 3, 1, "two-k") == pytest.approx(6.36e11, rel=1e-2)


def test_radius_at_k_composition():
    base = 24.0 * math.exp(24.0)
    expected = 4.0 * (math.log2(4) + 2.0) * (base + 1.0) + 1.0
    assert bound_value(Problem.RADIUS, 4, 1) == expected


def test_diameter_bounds_small_dimension():
    sigma = 42.0
    base = 2.0 ** (3 * sigma) * 34.0
    assert bound_value(Problem.DIAMETER, 2, 1, "two-k") == base
    expected = 4.0 * (1.0 + 2.0) * (base + 2.0) + 2.0
    assert bound_value(Problem.DIAMETER, 2, 1) == expected


def test_diameter_bound_overflows_to_astronomical():
    # 2^(3 * (42 d)^d) exceeds double range from d = 2 on
    for d in (2, 3):
        value = bound_value(Problem.DIAMETER, 4, d)
        assert math.isinf(value)
        assert render_bound(value) == "astronomical"
    value = bound_value(Problem.DIAMETER, 4, 1)
    assert not math.isinf(value)
    assert render_bound(value) == f"{value:.12g}"


@pytest.mark.parametrize("d", [86, 87, 100, 1000])
def test_bounds_at_high_dimension_are_floats_or_inf(d):
    # (42 d)^d itself overflows from d = 87 on
    for problem in Problem:
        for level in LEVELS:
            value = bound_value(problem, 4, d, level)
            assert type(value) is float
            assert not math.isnan(value)
    assert math.isinf(bound_value(Problem.DIAMETER, 4, d))
    assert bound_value(Problem.DISCRETE_RADIUS, 4, d) == 20.0 * d + 6.0


def test_bound_monotone_in_k():
    vals = [bound_value(Problem.DISCRETE_RADIUS, k, 2) for k in (1, 2, 4, 8, 16)]
    assert vals == sorted(vals)


def test_bound_validation():
    with pytest.raises(ValueError):
        bound_value(Problem.DIAMETER, 0, 1)
    with pytest.raises(ValueError):
        bound_value(Problem.DIAMETER, 1, 0)
    with pytest.raises(ValueError):
        bound_value(Problem.DIAMETER, 1, 1, "mid")
