"""Schedule arithmetic and distortion/GH bounds under randomized sweeps."""

import numpy as np
import pytest

from warpforge.limits import (
    compose_distortion,
    gh_error,
    holder_exponent,
    max_distortion,
    schedule,
)
from warpforge.profiles import ConstructionError, ParameterError


def test_schedule_stage_three():
    s = schedule(3, eps=0.05, delta=0.1, lambda_plus=1.0)
    assert s.r_j == 0.125
    assert s.eps_j == 0.00625
    assert s.lambda_j == pytest.approx(0.95625, abs=1e-15)
    assert s.delta_j == pytest.approx(1e-4, rel=1e-12)


def test_schedule_stage_zero_spends_nothing():
    s = schedule(0, eps=0.3, delta=0.2, lambda_plus=-1.5)
    assert s.lambda_j == -1.5
    assert s.r_j == 1.0


def test_schedule_rounding_onto_the_floor_is_an_error():
    # at j = 60, sum 2^-k rounds to exactly 1, so lambda_j would equal
    # lambda_plus - eps instead of staying above it
    with pytest.raises(ConstructionError, match="lambda_60"):
        schedule(60, eps=0.05, delta=0.1, lambda_plus=1.0)


def test_schedule_monotone_bounded():
    prev = None
    for j in range(40):
        s = schedule(j, eps=0.07, delta=0.3, lambda_plus=2.0)
        assert s.lambda_j > 2.0 - 0.07
        if prev is not None:
            assert s.lambda_j < prev
        prev = s.lambda_j


def test_holder_exponent_values():
    assert holder_exponent(0.01, 2.0) == pytest.approx(0.86918, abs=1e-5)
    assert holder_exponent(0.37, 1.0) == 1.0


def test_holder_exponent_increases_to_one():
    ladder = [holder_exponent(10.0 ** (-k), 2.0) for k in range(2, 9)]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] < 1.0
    assert 1.0 - ladder[-1] < 0.04


def test_compose_distortion_identity_at_stage_zero():
    assert compose_distortion(0.3, 0, 0.01, 2.0) == 0.3


def test_compose_distortion_isometric_regime():
    # r above every delta_k r_k: only the (1 + delta_k) factors act
    r, delta = 0.9, 0.01
    out = compose_distortion(r, 30, delta, 2.0)
    assert out == pytest.approx(r * np.prod([1 + delta ** (1 + k) for k in range(1, 31)]),
                                rel=1e-12)
    assert out <= (1 + delta) * r


def test_compose_distortion_randomized_bound():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        r = float(np.exp(rng.uniform(np.log(1e-12), 0.0)))
        j = int(rng.integers(0, 41))
        compose_distortion(r, j, 0.01, 2.0)  # raises on violation


@pytest.mark.parametrize("delta, C, j", [(1e-3, 2.0, 10), (0.01, 1.5, 40), (0.3, 3.0, 5)])
def test_max_distortion_bounds_every_sampled_product(delta, C, j):
    # product/bound grows with r between breakpoints, so no sample beats the
    # breakpoints and r = 1 by more than rounding
    worst = max_distortion(j, delta, C)
    rng = np.random.default_rng(j)
    for _ in range(500):
        r = float(np.exp(rng.uniform(np.log(1e-300), 0.0)))
        assert compose_distortion(r, int(rng.integers(0, j + 1)), delta, C) <= worst * (1 + 1e-15)


def test_max_distortion_finds_the_violation_at_r_one():
    # at delta = 1/2 the bound holds through stage 3 and fails from stage 4
    # on, only for r above about 0.95
    assert max_distortion(3, 0.5, 2.0) <= 1.5
    with pytest.raises(ConstructionError, match=r"r=1\.0, j=4"):
        max_distortion(4, 0.5, 2.0)


def test_max_distortion_skips_breakpoints_that_underflow():
    # delta^(1+k) is 0.0 from k = 36 on: those stages bound no separation
    assert max_distortion(40, 1e-9, 2.0) == pytest.approx(1.0, abs=1e-15)


def test_compose_distortion_rejects_large_separation():
    with pytest.raises(ParameterError):
        compose_distortion(1.5, 3, 0.01, 2.0)


def test_gh_error_geometric_tail():
    assert gh_error(0, None, 0.1, 1.0) == pytest.approx(0.0111111111, abs=1e-8)


def test_gh_error_empty_sum():
    assert gh_error(4, 4, 0.2, 3.0) == 0.0


def test_gh_error_cauchy_decay():
    vals = [gh_error(i, None, 0.3, 2.0) for i in range(25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-13


def test_gh_error_randomized_collapse_bound():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        i = int(rng.integers(0, 30))
        j = int(rng.integers(i, i + 40))
        delta = float(rng.uniform(1e-4, 0.5))
        C = float(rng.uniform(1.0, 10.0))
        total = gh_error(i, j, delta, C)
        assert total <= C * 2.0 ** (-i) * delta * (1 + 1e-12)
