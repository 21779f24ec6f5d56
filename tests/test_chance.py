"""Scheduler and the deterministic chance-constraint tightenings.

The Monte Carlo checks pin the probabilistic meaning of each reformulation:
put a state exactly on the tightened boundary, recover candidate endpoints
y = x_t/t - sigma(t) * xi with xi standard normal, and verify the original
constraint holds with at least the scheduled probability.
"""

import math

import numpy as np
import pytest

from chanceflow import (ConstraintSet, LinearBand, LinearIneq, QuadIneq,
                        Scheduler, SmoothScalar, TightenedConstraint,
                        affine_map, interpolate, mc_chance, normal_quantile,
                        sigma_of_t, tighten_set)
from chanceflow.chance import PHI_CLAMP, tighten_linear, tighten_quadratic
from chanceflow.constraints import MinDistance
from chanceflow.numerics import stream_rng

N_MC = 200_000


# --- scheduler ----------------------------------------------------------------


def test_phi_examples():
    assert Scheduler(0.5).phi(0.5) == pytest.approx(0.5)
    assert Scheduler(1.0).phi(0.0) == 0.0
    assert Scheduler(0.1).phi(1.0) == pytest.approx(0.933033, abs=1e-6)


def test_phi_is_monotone():
    sched = Scheduler(0.7)
    ts = np.linspace(0.0, 1.0, 100)
    vals = [sched.phi(t) for t in ts]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0


def test_scheduler_rejects_bad_exponent():
    with pytest.raises(ValueError):
        Scheduler(0.0)


def test_phi_rejects_time_outside_unit_interval():
    with pytest.raises(ValueError):
        Scheduler(1.0).phi(1.5)


# --- sigma ---------------------------------------------------------------------


def test_sigma_examples():
    assert sigma_of_t(0.5) == pytest.approx(1.0)
    assert sigma_of_t(1.0) == 0.0
    assert sigma_of_t(2.0 / 3.0) == pytest.approx(0.5)


def test_sigma_rejects_t0():
    with pytest.raises(ValueError):
        sigma_of_t(0.0)


# --- linear tightening -----------------------------------------------------------


def test_linear_degenerates_at_t1_bitwise():
    c = LinearIneq(np.array([1.0, 0.0]), 2.0)
    for prob in (0.5, 0.9, 0.999):
        assert tighten_linear(c, 1.0, prob).rhs == 2.0


def test_linear_median_probability_keeps_scaled_bound():
    c = LinearIneq(np.array([1.0]), 1.0)
    out = tighten_linear(c, 0.5, 0.5)
    assert out.rhs == pytest.approx(0.5, abs=1e-15)


def test_linear_worked_example():
    c = LinearIneq(np.array([3.0, 4.0]), 2.0)
    out = tighten_linear(c, 0.5, 0.95)
    want = 1.0 - 0.5 * 1.0 * 5.0 * normal_quantile(0.95)
    assert out.rhs == pytest.approx(want, abs=1e-15)
    assert out.rhs == pytest.approx(-3.112134, abs=1e-6)


def test_linear_boundary_meets_probability_target():
    # State on the tightened boundary; the clean constraint must hold for the
    # recovered endpoint with probability >= 0.95 up to MC noise.
    a = np.array([3.0, 4.0])
    c = LinearIneq(a, 2.0)
    t, prob = 0.5, 0.95
    out = tighten_linear(c, t, prob)
    x_t = out.rhs * a / float(a @ a)
    est = mc_chance(c, x_t, t, N_MC, stream_rng(31, 0))
    assert est.p_hat >= prob - 3.0 * est.stderr
    # The linear reformulation is exact, so the estimate is two-sided tight.
    assert abs(est.p_hat - prob) <= 4.0 * est.stderr


def test_linear_monotone_approach_to_clean_bound():
    # |rhs(t) - b| = (1-t) |b + ||a|| z| decreases monotonically in t; the rhs
    # itself is nondecreasing whenever b + ||a|| z >= 0 (it approaches b from
    # below in that regime).
    c = LinearIneq(np.array([2.0, 1.0]), 0.8)
    prob = 0.9
    ts = np.linspace(0.05, 1.0, 40)
    gaps = [abs(tighten_linear(c, t, prob).rhs - c.b) for t in ts]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    rhs = [tighten_linear(c, t, prob).rhs for t in ts]
    assert all(a <= b for a, b in zip(rhs, rhs[1:]))
    assert all(r <= c.b for r in rhs)


# --- quadratic tightening -----------------------------------------------------------


def test_quadratic_degenerates_at_t1():
    c = QuadIneq(np.array([1.0]), 4.0)
    out = tighten_quadratic(c, 1.0, 0.95)
    assert out.kind == "quadratic_band"
    assert out.rhs == 2.0


def test_quadratic_worked_example():
    c = QuadIneq(np.array([1.0]), 9.0)
    out = tighten_quadratic(c, 2.0 / 3.0, 0.95)
    want = (2.0 / 3.0) * (3.0 - 0.5 * normal_quantile(0.975))
    assert out.rhs == pytest.approx(want, abs=1e-15)
    assert out.rhs == pytest.approx(1.346679, abs=1e-6)


def test_quadratic_infeasible_margin_goes_inactive():
    c = QuadIneq(np.array([1.0]), 0.01)
    out = tighten_quadratic(c, 0.1, 0.95)
    assert out.kind == "inactive"
    assert out.violation(np.array([100.0])) == 0.0


def test_quadratic_boundary_is_conservative():
    a = np.array([1.0])
    c = QuadIneq(a, 9.0)
    t, prob = 2.0 / 3.0, 0.95
    out = tighten_quadratic(c, t, prob)
    x_t = np.array([out.rhs])  # on the upper edge of the band
    est = mc_chance(c, x_t, t, N_MC, stream_rng(31, 1))
    assert est.p_hat >= prob - 3.0 * est.stderr


def test_quadratic_bound_tight_at_zero_mean():
    # Choose b so that sqrt(b) equals the noise margin: the band collapses to
    # a.x_t = 0 and the union bound holds with equality there.
    t, prob = 0.5, 0.9
    sigma = sigma_of_t(t)
    z = normal_quantile((1.0 + prob) / 2.0)
    c = QuadIneq(np.array([1.0]), (sigma * z) ** 2)
    out = tighten_quadratic(c, t, prob)
    assert out.kind == "quadratic_band"
    assert abs(out.rhs) <= 1e-12
    est = mc_chance(c, np.array([0.0]), t, N_MC, stream_rng(31, 2))
    assert abs(est.p_hat - prob) <= 3.0 * est.stderr


# --- set-level tightening ------------------------------------------------------------


def test_marginal_empty_set_gives_empty_list():
    assert tighten_set(ConstraintSet(()), 0.5, Scheduler(1.0), "marginal") == []


def test_marginal_band_splits_risk_equally():
    band = LinearBand(np.array([1.0, 2.0]), -0.4, 0.9)
    sched = Scheduler(0.8)
    t = 0.7
    out = tighten_set(ConstraintSet((band,)), t, sched, "marginal")
    assert len(out) == 2
    side = (1.0 + sched.phi(t)) / 2.0
    lower = tighten_linear(LinearIneq(-band.a, -band.lo), t, side)
    upper = tighten_linear(LinearIneq(band.a, band.hi), t, side)
    assert out[0].rhs == lower.rhs
    assert out[1].rhs == upper.rhs


def test_marginal_goes_inactive_below_probability_floor():
    # phi(t) under the clamp floor means no quantile is defined; each face is
    # explicitly inactive for the step.
    sched = Scheduler(4.0)
    t = 1e-3
    assert sched.phi(t) < PHI_CLAMP
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),
                        LinearBand(np.array([1.0]), -1.0, 1.0)))
    out = tighten_set(cs, t, sched, "marginal")
    assert [c.kind for c in out] == ["inactive"] * 3


def test_marginal_rejects_unsupported_kinds():
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    with pytest.raises(ValueError):
        tighten_set(cs, 0.5, Scheduler(1.0), "marginal")


def test_pathwise_halfspace_worked_example():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    out = tighten_set(cs, 0.5, Scheduler(1.0), "pathwise", x0=np.array([2.0]))
    assert isinstance(out, ConstraintSet)
    (member,) = out.members
    assert member.a[0] == 1.0
    assert member.b == pytest.approx(1.0, abs=1e-15)


def test_pathwise_requires_x0():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    with pytest.raises(ValueError):
        tighten_set(cs, 0.5, Scheduler(1.0), "pathwise")


def test_pathwise_feasibility_matches_clean_feasibility():
    # Interpolated states are feasible for the transported set exactly when
    # the endpoint is feasible for the original one.
    rng = stream_rng(31, 3)
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, -0.5]), 0.2),
        QuadIneq(np.array([0.3, 1.0]), 1.5),
        MinDistance(np.array([1.0, 0.0]), 0.8),
    ))
    sched = Scheduler(1.0)
    for _ in range(50):
        x0 = rng.standard_normal(2)
        x1 = 2.0 * rng.standard_normal(2)
        for t in (0.2, 0.6, 0.95):
            moved = tighten_set(cs, t, sched, "pathwise", x0=x0)
            x_t = interpolate(x0, x1, t)
            clean_ok = np.all(cs.face_values(x1) <= 1e-12)
            path_ok = np.all(moved.face_values(x_t) <= 1e-9)
            assert clean_ok == path_ok


def test_affine_map_propagates_constraint_values():
    # g(M_t(x_t)) reproduces g(x1) along interpolated paths.
    rng = stream_rng(31, 4)
    g = SmoothScalar(3, lambda x: float(np.cos(x[0]) + x[1] * x[2]) - 0.3,
                     lambda x: np.array([-np.sin(x[0]), x[2], x[1]]))
    for _ in range(50):
        x0 = rng.standard_normal(3)
        x1 = rng.standard_normal(3)
        for t in np.linspace(0.05, 1.0, 12):
            x_t = interpolate(x0, x1, t)
            lifted = g.face_values(affine_map(x_t, x0, t))[0]
            assert abs(lifted - g.face_values(x1)[0]) <= 1e-12


def test_pathwise_smooth_scalar_transport_gradient():
    base = SmoothScalar(2, lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x)
    cs = ConstraintSet((base,))
    x0 = np.array([0.5, -1.0])
    t = 0.4
    moved = tighten_set(cs, t, Scheduler(1.0), "pathwise", x0=x0)
    (member,) = moved.members
    x = np.array([0.3, 0.2])
    # value: g((x - (1-t) x0)/t); gradient: grad(g)(M_t(x)) / t  (chain rule)
    y = affine_map(x, x0, t)
    assert member.face_values(x)[0] == pytest.approx(float(y @ y) - 1.0, abs=1e-12)
    assert np.allclose(member.face_gradient(x, 0), 2.0 * y / t, atol=1e-12)


def test_pathwise_multi_face_smooth_scalar_transport_gradient():
    base = SmoothScalar(2, lambda x: np.array([float(x @ x) - 1.0, x[0] * x[1]]),
                        lambda x: np.array([2.0 * x, [x[1], x[0]]]), n_faces=2)
    cs = ConstraintSet((base,))
    x0 = np.array([0.5, -1.0])
    t = 0.4
    moved = tighten_set(cs, t, Scheduler(1.0), "pathwise", x0=x0)
    (member,) = moved.members
    assert member.n_faces == 2
    x = np.array([0.3, 0.2])
    # values: g((x - (1-t) x0)/t); Jacobian: J_g(M_t(x)) / t  (chain rule)
    y = affine_map(x, x0, t)
    assert np.allclose(member.face_values(x), [float(y @ y) - 1.0, y[0] * y[1]],
                       rtol=0.0, atol=1e-12)
    assert np.allclose(member.jacobian(x), [2.0 * y / t, [y[1] / t, y[0] / t]],
                       rtol=0.0, atol=1e-12)
    assert np.allclose(member.face_gradient(x, 1), [y[1] / t, y[0] / t],
                       rtol=0.0, atol=1e-12)


def test_tighten_set_rejects_unknown_mode():
    with pytest.raises(ValueError):
        tighten_set(ConstraintSet(()), 0.5, Scheduler(1.0), "exact")


# --- tightened-constraint mechanics ---------------------------------------------------


def test_tightened_linear_projection():
    tc = TightenedConstraint(kind="linear", a=np.array([0.0, 2.0]), rhs=1.0)
    y = tc.project(np.array([3.0, 4.0]))
    assert np.allclose(y, [3.0, 0.5], atol=1e-14)
    assert tc.violation(y) == 0.0
    assert tc.violation(np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_tightened_band_projection_clamps_both_sides():
    tc = TightenedConstraint(kind="quadratic_band", a=np.array([1.0]), rhs=0.5)
    assert tc.project(np.array([2.0]))[0] == pytest.approx(0.5)
    assert tc.project(np.array([-2.0]))[0] == pytest.approx(-0.5)
    assert np.array_equal(tc.project(np.array([0.2])), [0.2])


def test_tightened_constraint_validation():
    with pytest.raises(ValueError):
        TightenedConstraint(kind="linear", a=np.zeros(2), rhs=0.0)
    with pytest.raises(ValueError):
        TightenedConstraint(kind="banded", a=np.array([1.0]), rhs=0.0)


def test_crossing_band_sides_marked_inactive():
    # A narrow band with an aggressive probability can tighten past itself;
    # both sides then report inactive rather than an empty feasible slab.
    band = LinearBand(np.array([1.0]), -1e-4, 1e-4)
    out = tighten_set(ConstraintSet((band,)), 0.5, Scheduler(0.01), "marginal")
    assert [c.kind for c in out] == ["inactive", "inactive"]
