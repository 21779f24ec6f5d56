"""Normal quantile, seeded streams, and the SPD solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanceflow import NumericalError, normal_cdf, normal_quantile, solve_spd, stream_rng


def erf_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bisect_quantile(p: float, lo: float = -40.0, hi: float = 40.0) -> float:
    """Independent reference inverse CDF: plain bisection on the erf-based CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- quantile ---------------------------------------------------------------


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.975, 0.95])
def test_quantile_matches_bisection_oracle(p):
    assert abs(normal_quantile(p) - bisect_quantile(p)) <= 1e-9


def test_quantile_known_two_sided_values():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-6)


@pytest.mark.parametrize("p", [-0.1, 0.0, 1.0, 1.1])
def test_quantile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


def test_quantile_cdf_roundtrip_to_1e12():
    # Includes both extreme tails and points either side of the rational
    # approximation's regime switch at p = 0.02425.
    grid = [1e-12, 1e-9, 1e-6, 0.01, 0.02, 0.025, 0.03, 0.2, 0.5, 0.8,
            0.975, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
    for p in grid:
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12


def test_quantile_is_monotone_on_grid():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 501)
    zs = [normal_quantile(p) for p in ps]
    assert all(a < b for a, b in zip(zs, zs[1:]))


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200, deadline=None)
def test_quantile_antisymmetry(p):
    assert abs(normal_quantile(p) + normal_quantile(1.0 - p)) <= 1e-12


# --- seeded streams ---------------------------------------------------------


def test_same_stream_replays_identically():
    a = stream_rng(1234, 7).standard_normal(2)
    b = stream_rng(1234, 7).standard_normal(2)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = stream_rng(1234, 0).standard_normal(8)
    b = stream_rng(1234, 1).standard_normal(8)
    c = stream_rng(1235, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_std_normal_clt_bounds():
    n = 10**6
    draws = stream_rng(2026, 0).standard_normal(n)
    assert abs(draws.mean()) <= 4.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) <= 0.01


# --- SPD solve --------------------------------------------------------------


def test_solve_spd_identity():
    r = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve_spd(np.eye(3), r), r, atol=1e-14)


def test_solve_spd_scalar_multiple():
    y = solve_spd(2.0 * np.eye(2), np.array([4.0, 6.0]))
    assert np.allclose(y, [2.0, 3.0], atol=1e-14)


def test_solve_spd_random_instance_residual():
    rng = stream_rng(99, 0)
    m = rng.standard_normal((5, 5))
    a = m @ m.T + 0.5 * np.eye(5)
    r = rng.standard_normal(5)
    y = solve_spd(a, r)
    assert np.linalg.norm(a @ y - r) <= 1e-10 * (1.0 + np.linalg.norm(r))


def test_solve_spd_residual_bound_over_conditioned_ensemble():
    # 1000 instances with condition numbers spread log-uniformly up to 1e6.
    rng = stream_rng(7, 1)
    for k in range(1000):
        d = int(rng.integers(2, 9))
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.geomspace(1.0 / cond, 1.0, d)
        a = (q * eigs) @ q.T
        a = 0.5 * (a + a.T)
        r = rng.standard_normal(d)
        y = solve_spd(a, r)
        resid = np.linalg.norm(a @ y - r)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(r)), (k, cond, resid)


def test_solve_spd_rejects_indefinite_matrix():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NumericalError):
        solve_spd(a, np.array([1.0, 1.0]))


def test_solve_spd_rejects_non_finite():
    a = np.eye(2)
    a[0, 1] = np.nan
    with pytest.raises(NumericalError):
        solve_spd(a, np.array([1.0, 1.0]))


def test_solve_spd_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.array([1.0, 2.0]))
