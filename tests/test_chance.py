"""Scheduler and the deterministic chance-constraint tightenings.

The Monte Carlo checks pin the probabilistic meaning of each reformulation:
put a state exactly on the tightened boundary, recover candidate endpoints
y = x_t/t - sigma(t) * xi with xi standard normal, and verify the original
constraint holds with at least the scheduled probability.
"""

import math

import numpy as np
import pytest

from chanceflow import (ConstraintSet, LinearBand, LinearIneq, Scheduler,
                        SmoothScalar, interpolate, mc_chance, normal_quantile,
                        project, project_pocs, recover_x1, sigma_of_t, tighten_set,
                        transport_set)
from chanceflow.chance import PHI_CLAMP, tighten_band, tighten_linear
from chanceflow.constraints import MinDistance, max_violation
from chanceflow.numerics import stream_rng

N_MC = 200_000


def quadratic(a, b):
    """The band |a.x| <= sqrt(b) that a config's quadratic (a.x)^2 <= b
    parses to."""
    root = math.sqrt(b)
    return LinearBand(a, -root, root)


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
        assert tighten_linear(c, 1.0, prob).b == 2.0


def test_linear_median_probability_keeps_scaled_bound():
    c = LinearIneq(np.array([1.0]), 1.0)
    out = tighten_linear(c, 0.5, 0.5)
    assert out.b == pytest.approx(0.5, abs=1e-15)


def test_linear_worked_example():
    c = LinearIneq(np.array([3.0, 4.0]), 2.0)
    out = tighten_linear(c, 0.5, 0.95)
    want = 1.0 - 0.5 * 1.0 * 5.0 * normal_quantile(0.95)
    assert isinstance(out, LinearIneq)
    assert np.array_equal(out.a, c.a)
    assert out.b == pytest.approx(want, abs=1e-15)
    assert out.b == pytest.approx(-3.112134, abs=1e-6)


def test_linear_boundary_meets_probability_target():
    # State on the tightened boundary; the clean constraint must hold for the
    # recovered endpoint with probability >= 0.95 up to MC noise.
    a = np.array([3.0, 4.0])
    c = LinearIneq(a, 2.0)
    t, prob = 0.5, 0.95
    out = tighten_linear(c, t, prob)
    x_t = out.b * a / float(a @ a)
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
    gaps = [abs(tighten_linear(c, t, prob).b - c.b) for t in ts]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    rhs = [tighten_linear(c, t, prob).b for t in ts]
    assert all(a <= b for a, b in zip(rhs, rhs[1:]))
    assert all(r <= c.b for r in rhs)


# --- quadratic tightening -----------------------------------------------------------


def test_quadratic_degenerates_at_t1():
    c = quadratic(np.array([1.0]), 4.0)
    band = tighten_band(c, 1.0, 0.95)
    assert isinstance(band, LinearBand)
    assert np.array_equal(band.a, c.a)
    assert band.lo == -2.0 and band.hi == 2.0


def test_quadratic_worked_example():
    c = quadratic(np.array([1.0]), 9.0)
    band = tighten_band(c, 2.0 / 3.0, 0.95)
    want = (2.0 / 3.0) * (3.0 - 0.5 * normal_quantile(0.975))
    assert band.hi == pytest.approx(want, abs=1e-15)
    assert band.hi == pytest.approx(1.346679, abs=1e-6)
    assert -band.lo == band.hi


def test_quadratic_infeasible_margin_goes_inactive():
    c = quadratic(np.array([1.0]), 0.01)
    assert tighten_band(c, 0.1, 0.95) is None
    # In a set the crossing band is left out: nothing is enforced this step.
    sched = Scheduler(0.01)
    assert sched.phi(0.1) > 0.95
    assert tighten_set(ConstraintSet((c,)), 0.1, sched).members == ()


def test_quadratic_boundary_is_conservative():
    a = np.array([1.0])
    c = quadratic(a, 9.0)
    t, prob = 2.0 / 3.0, 0.95
    band = tighten_band(c, t, prob)
    x_t = np.array([band.hi])  # on the upper edge of the band
    est = mc_chance(c, x_t, t, N_MC, stream_rng(31, 1))
    assert est.p_hat >= prob - 3.0 * est.stderr


def test_quadratic_bound_tight_at_zero_mean():
    # Choose b so that sqrt(b) equals the noise margin: the band collapses to
    # a.x_t = 0 and the union bound holds with equality there.
    t, prob = 0.5, 0.9
    sigma = sigma_of_t(t)
    z = normal_quantile((1.0 + prob) / 2.0)
    c = quadratic(np.array([1.0]), (sigma * z) ** 2)
    out = tighten_band(c, t, prob)
    assert out is not None  # the sides meet but do not cross
    assert abs(out.hi) <= 1e-12 and abs(out.lo) <= 1e-12
    est = mc_chance(c, np.array([0.0]), t, N_MC, stream_rng(31, 2))
    assert abs(est.p_hat - prob) <= 3.0 * est.stderr


# --- set-level tightening ------------------------------------------------------------


def test_marginal_empty_set_gives_empty_list():
    out = tighten_set(ConstraintSet((), tol=1e-6), 0.5, Scheduler(1.0))
    assert isinstance(out, ConstraintSet)
    assert out.members == ()
    assert out.tol == 1e-6


def test_marginal_set_holds_only_halfspaces_and_bands_with_the_clean_tol():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.5]), 0.3),
                        LinearBand(np.array([0.0, 1.0]), -2.0, 2.0),
                        quadratic(np.array([1.0, 1.0]), 4.0)), tol=1e-7)
    for t in (0.3, 0.7, 1.0):
        out = tighten_set(cs, t, Scheduler(0.5))
        assert isinstance(out, ConstraintSet)
        assert out.tol == cs.tol
        assert [type(c) for c in out.members] == [LinearIneq, LinearBand, LinearBand]
        assert out.all_closed_form


def test_marginal_band_splits_risk_equally():
    band = LinearBand(np.array([1.0, 2.0]), -0.4, 0.9)
    sched = Scheduler(0.8)
    t = 0.7
    (out,) = tighten_set(ConstraintSet((band,)), t, sched).members
    side = (1.0 + sched.phi(t)) / 2.0
    lower = tighten_linear(LinearIneq(-band.a, -band.lo), t, side)
    upper = tighten_linear(LinearIneq(band.a, band.hi), t, side)
    # One band whose sides are the two halfspaces tightened at (1 + p)/2.
    assert isinstance(out, LinearBand) and np.array_equal(out.a, band.a)
    assert out.lo == -lower.b and out.hi == upper.b


def _two_sides(band, t, prob):
    """The band's sides as halfspaces tightened at (1 + p)/2, lower first:
    the reference a tightened band reproduces bit for bit."""
    side = (1.0 + prob) / 2.0
    return (tighten_linear(LinearIneq(-band.a, -band.lo), t, side),
            tighten_linear(LinearIneq(band.a, band.hi), t, side))


def _random_band(rng, d):
    mid, half = rng.uniform(-1.0, 1.0), rng.exponential(0.5)
    return LinearBand(rng.standard_normal(d), mid - half, mid + half)


def test_tighten_set_keeps_member_types_and_order():
    # Each clean member maps to at most one member of its own type, in the
    # clean order; only bands whose tightened sides cross are dropped.
    rng = stream_rng(31, 5)
    dropped = full_at_t1 = 0
    for _ in range(300):
        d = int(rng.integers(1, 5))
        members = tuple(LinearIneq(rng.standard_normal(d), rng.uniform(-1.0, 1.0))
                        if rng.random() < 0.5 else _random_band(rng, d)
                        for _ in range(int(rng.integers(1, 6))))
        t = 1.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0))
        sched = Scheduler(float(rng.choice([0.01, 0.5, 2.0])))
        out = tighten_set(ConstraintSet(members), t, sched).members
        prob = min(sched.phi(t), 1.0 - PHI_CLAMP)
        want = []
        for c in members:
            if isinstance(c, LinearBand):
                lower, upper = _two_sides(c, t, prob)
                if upper.b < -lower.b:
                    continue
            want.append(c)
        assert [type(c) for c in out] == [type(c) for c in want]
        assert all(np.array_equal(o.a, c.a) for o, c in zip(out, want))
        dropped += len(members) - len(out)
        if t == 1.0:
            assert len(out) == len(members)
            full_at_t1 += 1
    assert dropped > 0 and full_at_t1 > 0


def test_tighten_band_matches_its_two_tightened_sides():
    # Bounds and faces are bitwise those of the two halfspace sides, and the
    # band is dropped exactly when the sides cross.
    rng = stream_rng(31, 6)
    crossed = 0
    for _ in range(2000):
        d = int(rng.integers(1, 6))
        band = _random_band(rng, d)
        t = float(rng.uniform(0.05, 1.0))
        prob = float(rng.uniform(0.01, 0.999))
        lower, upper = _two_sides(band, t, prob)
        out = tighten_band(band, t, prob)
        if upper.b < -lower.b:
            assert out is None
            crossed += 1
            continue
        assert out.lo == -lower.b and out.hi == upper.b
        x = 3.0 * rng.standard_normal((4, d))
        ref = np.concatenate([lower.face_values(x), upper.face_values(x)], axis=1)
        assert np.array_equal(out.face_values(x), ref)
        assert np.array_equal(out.face_values(x[0]), ref[0])
    assert 0 < crossed < 2000


def test_one_row_tighten_and_transport_keep_their_formulas_bitwise():
    # The formulas of a one-row band as written before bands held blocks of
    # rows, for both one-row layouts.
    rng = stream_rng(31, 9)
    crossed = 0
    for _ in range(500):
        d = int(rng.integers(1, 13))
        a = rng.standard_normal(d)
        mid, half = rng.uniform(-1.0, 1.0), rng.exponential(0.5)
        lo, hi = mid - half, mid + half
        t = float(rng.uniform(0.05, 1.0))
        prob = float(rng.uniform(0.01, 0.999))
        x0 = rng.standard_normal(d)
        m = t * ((1.0 - t) / t) * float(np.linalg.norm(a)) * normal_quantile((1.0 + prob) / 2.0)
        shift = (1.0 - t) * float(a @ x0)
        for band in (LinearBand(a, lo, hi), LinearBand(a[None], [lo], [hi])):
            out = tighten_band(band, t, prob)
            if not t * lo + m <= t * hi - m:
                assert out is None
                crossed += 1
            else:
                assert np.array_equal(out.a, band.a)
                assert out.lo == t * lo + m and out.hi == t * hi - m
            (moved,) = transport_set(ConstraintSet((band,)), t, x0).members
            assert np.array_equal(moved.a, band.a)
            assert moved.lo == t * lo + shift and moved.hi == t * hi + shift
    assert 0 < crossed < 1000


def test_band_block_tightens_and_transports_row_by_row():
    # Each row of a block takes its own margin or shift, bitwise that of the
    # row as a one-row band; only rows whose sides cross are left out.
    rng = stream_rng(31, 10)
    partial = dropped = 0
    for _ in range(400):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        cells = rng.permutation(d)[:k]
        rows = np.eye(d)[cells] * rng.uniform(0.2, 3.0, (k, 1))
        mid, half = rng.uniform(-1.0, 1.0, k), rng.exponential(0.3, k)
        block = LinearBand(rows, mid - half, mid + half)
        singles = [LinearBand(rows[r], mid[r] - half[r], mid[r] + half[r]) for r in range(k)]
        t = float(rng.uniform(0.05, 1.0))
        prob = float(rng.uniform(0.01, 0.999))
        out = tighten_band(block, t, prob)
        want = [b for b in (tighten_band(b, t, prob) for b in singles) if b is not None]
        partial += 0 < len(want) < k
        if not want:
            assert out is None
            dropped += 1
        else:
            assert np.array_equal(out.a, np.stack([b.a for b in want]))
            assert np.array_equal(out.lo, [b.lo for b in want])
            assert np.array_equal(out.hi, [b.hi for b in want])
        x0 = rng.standard_normal(d)
        (moved,) = transport_set(ConstraintSet((block,)), t, x0).members
        want = [transport_set(ConstraintSet((b,)), t, x0).members[0] for b in singles]
        assert np.array_equal(moved.a, rows)
        assert np.array_equal(moved.lo, [b.lo for b in want])
        assert np.array_equal(moved.hi, [b.hi for b in want])
    assert partial > 0 and dropped > 0


def test_lone_tightened_band_projects_by_its_clip():
    # A set holding one tightened band takes the band's exact clip, which
    # lands where the least-distance solve over its two sides does.
    rng = stream_rng(31, 7)
    checked = 0
    for _ in range(500):
        d = int(rng.integers(1, 6))
        band = _random_band(rng, d)
        t = float(rng.uniform(0.05, 1.0))
        prob = float(rng.uniform(0.01, 0.999))
        out = tighten_band(band, t, prob)
        if out is None:
            continue
        x = 2.0 * rng.standard_normal(d)
        got = project(x, ConstraintSet((out,)))
        assert np.array_equal(got, out.project(x))
        report = project_pocs(x, ConstraintSet(_two_sides(band, t, prob), tol=1e-12))
        assert report.converged
        assert np.max(np.abs(got - report.x_out)) <= 1e-14
        checked += 1
    assert checked > 100


def test_marginal_goes_inactive_below_probability_floor():
    # phi(t) under the clamp floor means no quantile is defined; every face is
    # left out for the step.
    sched = Scheduler(4.0)
    t = 1e-3
    assert sched.phi(t) < PHI_CLAMP
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),
                        LinearBand(np.array([1.0]), -1.0, 1.0)))
    out = tighten_set(cs, t, sched)
    assert out.members == ()
    assert out.tol == cs.tol


def test_marginal_rejects_unsupported_kinds():
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    with pytest.raises(ValueError):
        tighten_set(cs, 0.5, Scheduler(1.0))


def test_pathwise_halfspace_worked_example():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    out = transport_set(cs, 0.5, np.array([2.0]))
    assert isinstance(out, ConstraintSet)
    (member,) = out.members
    assert member.a[0] == 1.0
    assert member.b == pytest.approx(1.0, abs=1e-15)


def test_pathwise_feasibility_matches_clean_feasibility():
    # Interpolated states are feasible for the transported set exactly when
    # the endpoint is feasible for the original one.
    rng = stream_rng(31, 3)
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, -0.5]), 0.2),
        quadratic(np.array([0.3, 1.0]), 1.5),
        MinDistance(np.array([1.0, 0.0]), 0.8),
    ))
    for _ in range(50):
        x0 = rng.standard_normal(2)
        x1 = 2.0 * rng.standard_normal(2)
        for t in (0.2, 0.6, 0.95):
            moved = transport_set(cs, t, x0)
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
            lifted = g.face_values(recover_x1(x_t, x0, t))[0]
            assert abs(lifted - g.face_values(x1)[0]) <= 1e-12


def test_pathwise_smooth_scalar_transport_gradient():
    base = SmoothScalar(2, lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x)
    cs = ConstraintSet((base,))
    x0 = np.array([0.5, -1.0])
    t = 0.4
    moved = transport_set(cs, t, x0)
    (member,) = moved.members
    x = np.array([0.3, 0.2])
    # value: g((x - (1-t) x0)/t); gradient: grad(g)(M_t(x)) / t  (chain rule)
    y = recover_x1(x, x0, t)
    assert member.face_values(x)[0] == pytest.approx(float(y @ y) - 1.0, abs=1e-12)
    assert np.allclose(member.jacobian(x)[0], 2.0 * y / t, atol=1e-12)


def test_pathwise_multi_face_smooth_scalar_transport_gradient():
    base = SmoothScalar(2, lambda x: np.array([float(x @ x) - 1.0, x[0] * x[1]]),
                        lambda x: np.array([2.0 * x, [x[1], x[0]]]), n_faces=2)
    cs = ConstraintSet((base,))
    x0 = np.array([0.5, -1.0])
    t = 0.4
    moved = transport_set(cs, t, x0)
    (member,) = moved.members
    assert member.n_faces == 2
    x = np.array([0.3, 0.2])
    # values: g((x - (1-t) x0)/t); Jacobian: J_g(M_t(x)) / t  (chain rule)
    y = recover_x1(x, x0, t)
    assert np.allclose(member.face_values(x), [float(y @ y) - 1.0, y[0] * y[1]],
                       rtol=0.0, atol=1e-12)
    assert np.allclose(member.jacobian(x), [2.0 * y / t, [y[1] / t, y[0] / t]],
                       rtol=0.0, atol=1e-12)
    assert np.allclose(member.jacobian(x)[1], [y[1] / t, y[0] / t],
                       rtol=0.0, atol=1e-12)


# --- tightened-constraint mechanics ---------------------------------------------------


def test_tightened_linear_projection():
    tc = tighten_linear(LinearIneq(np.array([0.0, 2.0]), 1.0), 1.0, 0.9)
    y = tc.project(np.array([3.0, 4.0]))
    assert np.allclose(y, [3.0, 0.5], atol=1e-14)
    assert max_violation(ConstraintSet((tc,)), y) == 0.0
    assert tc.face_values(np.array([0.0, 1.0]))[0] == pytest.approx(1.0)


def test_tightened_band_projection_clamps_both_sides():
    tc = ConstraintSet((tighten_band(quadratic(np.array([1.0]), 0.25), 1.0, 0.9),))
    assert project(np.array([2.0]), tc)[0] == pytest.approx(0.5)
    assert project(np.array([-2.0]), tc)[0] == pytest.approx(-0.5)
    assert np.array_equal(project(np.array([0.2]), tc), [0.2])


def test_tightened_constraint_validation():
    # Tightened sets are built from the validated clean kinds.
    with pytest.raises(ValueError):
        LinearIneq(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        LinearBand(np.array([1.0]), 0.5, -0.5)


def test_crossing_band_sides_marked_inactive():
    # A narrow band with an aggressive probability can tighten past itself;
    # the band is then left out rather than forming an empty slab.
    band = LinearBand(np.array([1.0]), -1e-4, 1e-4)
    out = tighten_set(ConstraintSet((band,)), 0.5, Scheduler(0.01))
    assert out.members == ()
