"""Projection operators: closed forms, the least-distance solve, Gauss-Newton,
and the path-decomposed projection."""

import numpy as np
import pytest
import scipy.optimize

from chanceflow import (ConstraintSet, LinearBand, LinearIneq,
                        MinDistance, NumericalError, OracleFailure, SmoothScalar,
                        final_refine, gauss_newton_project, interpolate,
                        max_violation, project, project_decomposed,
                        project_pocs, recover_x1, transport_set)
from chanceflow import numerics as numerics_module
from chanceflow import projection as projection_module
from chanceflow.chance import tighten_linear
from chanceflow.oracles import halfspace_qp_project, jacobian_active
from chanceflow.numerics import solve_spd, stream_rng
from chanceflow.reaction_diffusion import (RdGrid, RdProblem, rd_constraints,
                                           simulate_rd)


# --- closed forms -------------------------------------------------------------


def test_project_linear_axis_aligned():
    c = LinearIneq(np.array([1.0, 0.0]), 1.0)
    assert np.array_equal(c.project(np.array([2.0, 0.0])), [1.0, 0.0])


def test_project_linear_interior_unchanged():
    c = LinearIneq(np.array([1.0, 0.0]), 1.0)
    x = np.array([0.0, 0.0])
    assert np.array_equal(c.project(x), x)


def test_project_linear_full_retraction():
    c = LinearIneq(np.array([3.0, 4.0]), 0.0)
    out = c.project(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.0, 0.0], atol=1e-14)


def test_project_linear_accepts_tightened_constraint():
    # A tightened halfspace is a LinearIneq: a.x <= 0.5 * 0.5 at t = 0.5.
    tc = tighten_linear(LinearIneq(np.array([1.0]), 0.5), 0.5, 0.5)
    assert isinstance(tc, LinearIneq)
    assert tc.project(np.array([1.0]))[0] == pytest.approx(0.25)


def test_project_band_clips():
    # A config's quadratic (a.x)^2 <= 4 is the symmetric band |a.x| <= 2.
    tc = LinearBand(np.array([1.0]), -2.0, 2.0)
    assert tc.project(np.array([5.0]))[0] == pytest.approx(2.0)
    assert tc.project(np.array([-5.0]))[0] == pytest.approx(-2.0)
    assert np.array_equal(tc.project(np.array([1.0])), [1.0])


def test_project_band_linear_band():
    band = LinearBand(np.array([0.0, 1.0]), -0.5, 0.5)
    out = band.project(np.array([2.0, 3.0]))
    assert np.allclose(out, [2.0, 0.5], atol=1e-14)


def test_closed_forms_reject_foreign_types():
    # The least-distance solve takes only members with linear faces.
    with pytest.raises(TypeError):
        project_pocs(np.zeros(1), ConstraintSet((
            SmoothScalar(1, lambda x: float(x[0] ** 2) - 1.0, lambda x: 2.0 * x),)))
    with pytest.raises(TypeError):
        project_pocs(np.zeros(2), ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),
                                                 MinDistance(np.zeros(2), 1.0))))


# --- the projection dispatch ----------------------------------------------------


_HALF = LinearIneq(np.array([1.0, 0.5, 0.0]), 0.2)
_BAND = LinearBand(np.array([0.0, 1.0, -1.0]), -0.3, 0.4)
_RING = MinDistance(np.array([0.5, 0.0, 1.0]), 0.6)
_SMOOTH = SmoothScalar(3, lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x)
# Rows exactly orthogonal to _HALF's (1, 0.5, 0), and a block of two rows
# orthogonal to each other and to the halfspace after them.
_HALF_BAND = LinearBand(np.array([-1.0, 2.0, 0.0]), -0.3, 0.4)
_BLOCK = LinearBand(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),
                    np.array([-0.5, 0.0]), np.array([0.5, 1.5]))


@pytest.mark.parametrize("members, route", [
    ((), "identity"),
    ((_HALF,), "closed_form"),
    ((_BAND,), "closed_form"),
    ((_HALF, _BAND), "pocs"),
    ((_HALF, _BAND, LinearIneq(np.array([0.0, 0.0, 1.0]), -0.1)), "pocs"),
    ((_RING,), "gauss_newton"),
    ((_HALF, _SMOOTH), "gauss_newton"),
    ((_HALF, _HALF_BAND), "one_pass"),
    ((_BLOCK, LinearIneq(np.array([0.0, 0.0, 1.0]), -0.1)), "one_pass"),
])
def test_project_dispatch(members, route):
    cs = ConstraintSet(members, tol=1e-9)
    assert cs.orthogonal == (route in ("identity", "closed_form", "one_pass"))
    rng = stream_rng(41, 6)
    for _ in range(20):
        x = 2.0 * rng.standard_normal(3)
        got = project(x, cs, 3)
        if route == "identity":
            want = x
        elif route == "closed_form":
            want = members[0].project(x)
        elif route == "one_pass":
            want = members[1].project(members[0].project(x))
        elif route == "pocs":
            want = project_pocs(x, cs).x_out
        else:
            want = gauss_newton_project(x, cs, 3).x_out
        assert np.array_equal(got, want)


# --- one pass over mutually orthogonal rows ----------------------------------------


_ROW_BASES = {
    "axes": np.eye(4),
    "hadamard": np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                          [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]),
    "integer": np.array([[1.0, 2.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, -1.0, 3.0]]),
}


def _orthogonal_set(rng, basis):
    """A random set on 1-4 rows of an exactly orthogonal basis of R^4, and
    the same set as halfspaces (a band is two). The rows are signed, scaled
    by small integers or 0.5 and permuted, all exactly, and grouped into
    halfspaces, one-row bands and band blocks."""
    rows = _ROW_BASES[basis][rng.permutation(4)][:, rng.permutation(4)]
    rows = rows * rng.choice([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0], size=(4, 1))
    rows = rows[:rng.integers(1, 5)]
    members, halfspaces = [], []
    while len(rows):
        k = int(rng.integers(1, len(rows) + 1))
        block, rows = rows[:k], rows[k:]
        center, width = rng.uniform(-1.0, 1.0, k), rng.uniform(0.05, 1.5, k)
        lo, hi = center - width, center + width
        if k == 1 and rng.random() < 0.5:
            members.append(LinearIneq(block[0], hi[0]))
            halfspaces.append(members[-1])
            continue
        members.append(LinearBand(block, lo, hi) if k > 1 else LinearBand(block[0], lo[0], hi[0]))
        for a, lo_r, hi_r in zip(block, lo, hi):
            halfspaces += [LinearIneq(-a, -lo_r), LinearIneq(a, hi_r)]
    return ConstraintSet(tuple(members), tol=1e-10), halfspaces


@pytest.mark.parametrize("basis", sorted(_ROW_BASES))
def test_one_pass_on_orthogonal_rows_is_the_qp_projection(basis):
    rng = stream_rng(43, sorted(_ROW_BASES).index(basis))
    inside = outside = 0
    for _ in range(40):
        cs, halfspaces = _orthogonal_set(rng, basis)
        assert cs.orthogonal
        for scale in (0.1, 3.0):
            x = scale * rng.standard_normal(4)
            got = project(x, cs)
            if max_violation(cs, x) == 0.0:
                inside += 1
                assert np.array_equal(got, x)
            else:
                outside += 1
            want = halfspace_qp_project(x, halfspaces)
            assert np.linalg.norm(got - want) <= 1e-9 * (1.0 + np.linalg.norm(x))
    assert inside >= 5 and outside >= 40


def test_member_order_changes_the_one_pass_only_within_rounding():
    rng = stream_rng(43, 5)
    for trial in range(60):
        cs, _ = _orthogonal_set(rng, sorted(_ROW_BASES)[trial % 3])
        shuffled = ConstraintSet(tuple(cs.members[i] for i in rng.permutation(len(cs.members))),
                                 tol=cs.tol)
        assert shuffled.orthogonal
        x = 3.0 * rng.standard_normal(4)
        assert np.allclose(project(x, shuffled), project(x, cs),
                           rtol=0.0, atol=1e-14 * (1.0 + np.linalg.norm(x)))


def test_rows_orthogonal_only_to_rounding_go_to_least_distance(monkeypatch):
    # Rows from a QR factorization are orthogonal only up to rounding, and
    # e3 + 2^-40 e1 misses e1 by one Gram entry: both sets take the
    # least-distance solve.
    rotated = np.linalg.qr(stream_rng(43, 6).standard_normal((3, 3)))[0]
    nearly = np.eye(3)
    nearly[2, 0] = 2.0 ** -40
    calls = []
    solve = projection_module.project_pocs
    monkeypatch.setattr(projection_module, "project_pocs",
                        lambda *args: calls.append(args) or solve(*args))
    for rows in (rotated, nearly):
        assert (rows @ rows.T)[~np.eye(3, dtype=bool)].any()
        cs = ConstraintSet(tuple(LinearIneq(r, -0.1) for r in rows), tol=1e-10)
        assert not cs.orthogonal
        x = np.array([1.0, 2.0, 3.0])
        calls.clear()
        got = project(x, cs)
        assert len(calls) == 1
        assert np.array_equal(got, solve(x, cs).x_out)


# --- the least-distance solve -----------------------------------------------------


def _halfspaces(members):
    """The faces of halfspaces and bands as halfspaces, for the KKT oracle."""
    out = []
    for c in members:
        if isinstance(c, LinearIneq):
            out.append(c)
            continue
        for a, lo, hi in zip(np.atleast_2d(c.a), np.atleast_1d(c.lo), np.atleast_1d(c.hi)):
            out += [LinearIneq(-a, -lo), LinearIneq(a, hi)]
    return out


def _assert_kkt(cs, x, y):
    """y is the projection of x onto the linear set cs: y meets cs.tol, and
    x - y = A^T lam for multipliers lam >= 0 on the faces y lies on, so that
    every face has lam_i g_i(y) = 0 up to rounding."""
    scale = 1.0 + np.linalg.norm(x)
    vals = cs.face_values(y)
    assert max_violation(cs, y) <= cs.tol
    rows = np.concatenate([c.jacobian(y) for c in cs.members])
    on = vals >= -1e-9 * scale
    lam = np.zeros(len(vals))
    if on.any():  # SciPy's nnls aborts the process on a matrix with no columns
        lam[on] = scipy.optimize.nnls(rows[on].T, x - y)[0]
    assert (lam >= 0.0).all()
    assert np.linalg.norm(rows.T @ lam - (x - y)) <= 1e-12 * scale
    assert np.abs(lam * vals).max() <= 1e-12 * scale


def _random_linear_set(rng, d):
    """2-4 members on random, non-orthogonal rows of R^d, halfspaces and
    one-row bands in random order."""
    members = []
    for _ in range(int(rng.integers(2, 5))):
        a = rng.standard_normal(d)
        if rng.random() < 0.5:
            members.append(LinearIneq(a, rng.uniform(-1.0, 1.0)))
        else:
            lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2))
            members.append(LinearBand(a, lo, hi))
    return ConstraintSet(tuple(members), tol=1e-10)


def test_pocs_single_halfspace_matches_closed_form():
    c = LinearIneq(np.array([2.0, 1.0]), 0.3)
    x = np.array([1.5, 1.5])
    report = project_pocs(x, ConstraintSet((c,), tol=1e-10))
    assert np.allclose(report.x_out, c.project(x), atol=1e-12)
    assert report.converged


def test_pocs_orthogonal_halfspaces():
    cons = [LinearIneq(np.array([1.0, 0.0]), 0.0),
            LinearIneq(np.array([0.0, 1.0]), 0.0)]
    report = project_pocs(np.array([1.0, 1.0]), ConstraintSet(cons, tol=1e-10))
    assert np.allclose(report.x_out, [0.0, 0.0], atol=1e-12)


def test_pocs_matches_kkt_solve_on_oblique_pair():
    cons = [LinearIneq(np.array([1.0, 0.2]), 0.0),
            LinearIneq(np.array([-0.3, 1.0]), -0.1)]
    x = np.array([1.0, 1.2])  # violates both
    report = project_pocs(x, ConstraintSet(cons, tol=1e-10))
    want = halfspace_qp_project(x, cons)
    assert np.linalg.norm(report.x_out - want) <= 1e-8


def test_pocs_matches_kkt_solve_on_random_instances():
    # Triples of halfspaces in 3-D, then 8-D sets mixing halfspaces and bands.
    rng = stream_rng(41, 0)
    cases = []
    for _ in range(30):
        cons = tuple(LinearIneq(rng.standard_normal(3), rng.uniform(-0.5, 0.5))
                     for _ in range(3))
        cases.append((ConstraintSet(cons, tol=1e-10), 2.0 * rng.standard_normal(3)))
    for _ in range(300):
        cs = _random_linear_set(rng, 8)
        cases.append((cs, 2.0 * rng.standard_normal(8)))
    checked = 0
    for cs, x in cases:
        assert not cs.orthogonal
        report = project_pocs(x, cs)
        try:
            want = halfspace_qp_project(x, _halfspaces(cs.members))
        except OracleFailure:
            assert not report.converged  # an inconsistent set has no projection
            continue
        assert report.converged
        assert np.linalg.norm(report.x_out - want) <= 1e-12 * (1.0 + np.linalg.norm(x))
        _assert_kkt(cs, x, report.x_out)
        checked += 1
    assert checked >= 300


def test_pocs_lands_on_the_apex_at_every_tolerance():
    # Two boundaries 6 degrees apart: x projects onto their apex, and the
    # solve reaches it whatever the set's tolerance.
    cons = (LinearIneq(np.array([1.0, 0.05]), 0.0), LinearIneq(np.array([1.0, -0.05]), 0.0))
    x = np.array([1.0, 0.01])
    want = halfspace_qp_project(x, cons)
    for tol in (1e-4, 1e-8):
        cs = ConstraintSet(cons, tol=tol)
        report = project_pocs(x, cs)
        assert report.converged and report.iterations == 1
        assert np.linalg.norm(report.x_out - want) <= 1e-12 * (1.0 + np.linalg.norm(x))
        _assert_kkt(cs, x, report.x_out)


def test_pocs_degenerate_sets_match_the_oracle():
    # A zero-width band (two faces on one line) with an oblique halfspace,
    # and a halfspace listed twice: dependent faces, one projection.
    half = LinearIneq(np.array([1.0, 0.2]), 0.1)
    sets = (ConstraintSet((LinearBand(np.array([1.0, 1.0]), 0.3, 0.3),
                           LinearIneq(np.array([1.0, -0.4]), 0.1)), tol=1e-10),
            ConstraintSet((half, half, LinearIneq(np.array([-0.3, 1.0]), 0.2)), tol=1e-10))
    rng = stream_rng(41, 8)
    for cs in sets:
        assert not cs.orthogonal
        for _ in range(20):
            x = 2.0 * rng.standard_normal(2)
            report = project_pocs(x, cs)
            want = halfspace_qp_project(x, _halfspaces(cs.members))
            assert np.linalg.norm(report.x_out - want) <= 1e-12
            _assert_kkt(cs, x, report.x_out)


def test_pocs_reports_an_inconsistent_set_unconverged():
    # x <= -1 and x >= 2 share no point: the state comes back unmoved.
    cs = ConstraintSet((LinearIneq(np.array([1.0]), -1.0), LinearIneq(np.array([-1.0]), -2.0)))
    for x in (np.array([0.0]), np.array([-3.0]), np.array([5.0])):
        report = project_pocs(x, cs)
        assert not report.converged and report.iterations == 1
        assert np.array_equal(report.x_out, x) and report.x_out is not x
        assert report.final_max_violation == max_violation(cs, x)
        assert np.array_equal(project(x, cs), x)


def test_pocs_raises_when_nnls_fails(monkeypatch):
    def capped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(numerics_module, "nnls", capped)
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.2]), 0.0),
                        LinearIneq(np.array([-0.3, 1.0]), -0.1)))
    with pytest.raises(NumericalError):
        project(np.array([1.0, 1.2]), cs)


def test_pocs_feasible_input_is_returned_with_zero_cycles():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),
                        LinearBand(np.array([1.0, 1.0]), -1.0, 1.0)), tol=1e-8)
    rng = stream_rng(41, 7)
    checked = 0
    for _ in range(50):
        x = 0.3 * rng.standard_normal(2) - np.array([0.5, 0.0])
        if np.max(cs.face_values(x)) > 0.0:
            continue
        checked += 1
        report = project_pocs(x, cs)
        assert np.array_equal(report.x_out, x) and report.x_out is not x
        assert report.iterations == 0 and report.history == (0.0,)
        assert report.converged and report.final_max_violation == 0.0
    assert checked >= 30
    # On the boundary every face is <= 0.0, so nothing moves either.
    on_edge = project_pocs(np.array([0.0, 1.0]), cs)
    assert on_edge.iterations == 0 and np.array_equal(on_edge.x_out, [0.0, 1.0])
    # A violation inside (0, tol] is not an exit: one solve moves it onto
    # the face.
    x = np.array([1e-12, 0.0])
    inside_tol = project_pocs(x, cs)
    assert inside_tol.iterations == 1
    assert np.linalg.norm(inside_tol.x_out - halfspace_qp_project(x, _halfspaces(cs.members))) <= 1e-12
    _assert_kkt(cs, x, inside_tol.x_out)


def test_pocs_empty_input_is_identity():
    x = np.array([1.0, -2.0])
    report = project_pocs(x, ConstraintSet(()))
    assert np.array_equal(report.x_out, x)
    assert report.iterations == 0


# --- Gauss-Newton ----------------------------------------------------------------


def test_gn_feasible_point_returned_unchanged():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 1.0),))
    x = np.array([0.2, 0.4])
    report = gauss_newton_project(x, cs)
    assert np.array_equal(report.x_out, x)
    assert report.iterations == 0
    assert report.converged


def test_gn_single_halfspace_close_to_closed_form():
    c = LinearIneq(np.array([1.0, 2.0]), 0.5)
    cs = ConstraintSet((c,))
    x = np.array([2.0, 1.0])
    report = gauss_newton_project(x, cs, 1, 1e-12)
    # One ridge-regularized iteration lands within a lambda-sized perturbation.
    assert np.linalg.norm(report.x_out - c.project(x)) <= 1e-5


def test_gn_min_distance_reaches_ring():
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    report = gauss_newton_project(np.array([0.5, 0.0]), cs, 30, 1e-10)
    assert report.converged
    assert np.linalg.norm(report.x_out) >= 1.0 - 1e-8
    assert np.allclose(report.x_out, [1.0, 0.0], atol=1e-6)


def test_gn_escapes_min_distance_center():
    cs = ConstraintSet((MinDistance(np.array([0.3, -0.7]), 0.5),))
    report = gauss_newton_project(np.array([0.3, -0.7]), cs, 50, 1e-10)
    assert report.converged
    assert np.linalg.norm(report.x_out - [0.3, -0.7]) >= 0.5 - 1e-8


@pytest.mark.parametrize("subset", [None, (2, 0)])
def test_gn_from_min_distance_center_steps_along_center_row(subset):
    # The center row is -e_k at k = coord_subset[0] (0 without a subset), so
    # the state leaves the ball along +e_k and nowhere else.
    center = np.array([0.3, -0.7])
    k = 0 if subset is None else subset[0]
    x = center.copy() if subset is None else np.array([-0.7, 5.0, 0.3])
    cs = ConstraintSet((MinDistance(center, 0.5, coord_subset=subset),))
    report = gauss_newton_project(x, cs, 50, 1e-10)
    assert report.converged
    moved = report.x_out - x
    assert moved[k] >= 0.5 - 1e-8
    assert np.array_equal(np.delete(moved, k), np.zeros(x.size - 1))
    again = gauss_newton_project(x, cs, 50, 1e-10)
    assert again.x_out.tobytes() == report.x_out.tobytes()
    assert again.history == report.history


def test_gn_violation_history_nonincreasing_on_convex_set():
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, 1.0]), 0.0),
        LinearBand(np.array([1.0, -1.0]), -0.2, 0.2),
    ))
    report = gauss_newton_project(np.array([2.0, 1.0]), cs, 40, 1e-10)
    hist = report.history
    assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
    assert report.converged


def dense_gauss_newton_step(x, cs):
    """One ridge-regularized update from the stacked dense Jacobian: the
    reference that Gauss-Newton's row blocks are checked against."""
    vals = cs.face_values(x)
    active = np.flatnonzero(vals > 0.0)
    jac = jacobian_active(cs, x, active)
    y = solve_spd(jac @ jac.T + 1e-6 * np.eye(active.size), vals[active])
    return x - jac.T @ y


def step_sets():
    e = np.eye(6)
    ball = MinDistance(np.array([0.3, -0.2, 0.1, 0.0, 0.5, -0.4]), 1.5)
    block = LinearBand(np.array([-0.3 * e[2], 4.0 * e[0], 1e-3 * e[5]]),
                       [-1.0, -0.5, -2.0], [0.2, 0.5, 2.0])
    yield "ball_and_coordinate_halfspace", ConstraintSet((ball, LinearIneq(2.5 * e[2], 0.3)))
    yield "ball_coordinates_oblique", ConstraintSet(
        (ball, block, LinearIneq(-0.7 * e[2], 0.4),
         LinearIneq(np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.0]), 0.1)))
    for n_s, n_t in ((4, 2), (7, 3), (32, 20)):
        grid = RdGrid(n_s=n_s, n_t=n_t, dt_phys=0.2)
        problem = RdProblem(grid=grid, nu=0.01, rho=0.3, ic=0.4 + 0.1 * np.sin(np.pi * grid.s),
                            g_left=0.003, g_right=-0.001)
        yield f"rd_{n_s}x{n_t}", rd_constraints(problem)


@pytest.mark.parametrize("name, cs", list(step_sets()))
def test_gn_step_matches_the_dense_step(name, cs):
    rng = stream_rng(41, 12)
    steps = 0
    for _ in range(60):
        x = 2.0 * rng.standard_normal(cs.dim or 6)
        if max_violation(cs, x) <= 1e-10:
            continue
        want = dense_gauss_newton_step(x, cs)
        got = gauss_newton_project(x, cs, 1).x_out
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(x).max())
        steps += 1
    assert steps >= 20


def test_gn_reports_budget_exhaustion():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    report = gauss_newton_project(np.array([5.0]), cs, 0, 1e-12)
    assert not report.converged
    assert report.iterations == 0


@pytest.mark.parametrize("max_iters, tol", [(-1, 1e-10), (30, 0.0), (30, float("nan"))],
                         ids=["negative_budget", "zero_tol", "nan_tol"])
def test_gn_rejects_out_of_range_budget_and_tolerance(max_iters, tol):
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    with pytest.raises(ValueError):
        gauss_newton_project(np.array([5.0]), cs, max_iters, tol)


# --- final refinement ---------------------------------------------------------------


def test_final_refine_feasible_unchanged():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 1.0),))
    x = np.array([0.5, 0.5])
    report = final_refine(x, cs)
    assert np.array_equal(report.x_out, x)
    assert report.iterations == 0


def test_final_refine_reaction_diffusion_field():
    grid = RdGrid(n_s=10, n_t=4, dt_phys=0.2)
    rng = stream_rng(41, 1)
    ic = 0.4 + 0.1 * np.sin(np.pi * grid.s)
    problem = RdProblem(grid=grid, nu=0.01, rho=0.02, ic=ic,
                        g_left=0.003, g_right=-0.001, delta=1e-10)
    cs = rd_constraints(problem)
    clean = simulate_rd(problem).ravel()
    for trial in range(5):
        x = clean + 0.05 * rng.standard_normal(clean.size)
        report = final_refine(x, cs, budget=30)
        assert report.converged, trial
        assert report.final_max_violation <= 1e-8
        assert max_violation(cs, report.x_out) <= 1e-8


def test_final_refine_superlinear_tail():
    # Smooth full-rank constraint: the violation sequence should contract
    # quadratically once close, r_{k+1} <= 10 r_k^2 over the last recorded
    # iterations.
    cs = ConstraintSet((SmoothScalar(2, lambda x: float(x @ x) - 1.0,
                                     lambda x: 2.0 * x),))
    report = final_refine(np.array([1.5, 0.0]), cs)
    assert report.converged
    decays = [v for v in report.history if v > 0.0]
    # Drop the duplicate terminal entry final_refine appends after polishing.
    while len(decays) >= 2 and decays[-1] == decays[-2]:
        decays.pop()
    assert len(decays) >= 4
    for r_k, r_next in list(zip(decays, decays[1:]))[-3:]:
        assert r_next <= 10.0 * r_k * r_k, report.history


def test_final_refine_runs_out_of_budget_honestly():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    report = final_refine(np.array([3.0]), cs, budget=0)
    # Budget zero leaves Gauss-Newton no iterations, but the closed-form
    # polish still lands the halfspace exactly.
    assert report.final_max_violation == 0.0
    assert report.converged


# --- decomposed projection ------------------------------------------------------------


def test_decomposed_worked_example():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    out = project_decomposed(np.array([3.0]), np.array([2.0]), 0.5, cs)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


def test_decomposed_feasible_state_unchanged():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    x = np.array([0.9])  # M_t(x) = (0.9 - 0.5*2)/0.5 = -0.2, inside C1
    out = project_decomposed(x, np.array([2.0]), 0.5, cs)
    assert np.array_equal(out, x)


def test_decomposed_empty_set_returns_copy_of_state():
    x = np.array([0.4, -1.3])
    out = project_decomposed(x, np.array([2.0, 0.5]), 0.3, ConstraintSet(()))
    assert np.array_equal(out, x)
    assert out is not x


def test_decomposed_rejects_t0():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    with pytest.raises(ValueError):
        project_decomposed(np.array([1.0]), np.array([0.0]), 0.0, cs)


def test_decomposed_equals_projection_onto_transported_halfspace():
    rng = stream_rng(41, 2)
    for _ in range(100):
        a = rng.standard_normal(3)
        if np.linalg.norm(a) < 1e-3:
            continue
        c = LinearIneq(a, rng.uniform(-1.0, 1.0))
        cs = ConstraintSet((c,))
        x0 = rng.standard_normal(3)
        x = 2.0 * rng.standard_normal(3)
        t = rng.uniform(0.05, 1.0)
        got = project_decomposed(x, x0, t, cs)
        moved = transport_set(cs, t, x0)
        want = moved.members[0].project(x)
        assert np.linalg.norm(got - want) <= 1e-10


def test_decomposed_construction_identity():
    # (1-t) x0 + t P1(M_t(x)) reproduced explicitly.
    cs = ConstraintSet((LinearBand(np.array([1.0, 1.0]), -0.3, 0.3),))
    x0 = np.array([0.4, -0.1])
    x = np.array([1.0, 1.0])
    t = 0.6
    got = project_decomposed(x, x0, t, cs)
    clean = cs.members[0].project(recover_x1(x, x0, t))
    assert np.allclose(got, interpolate(x0, clean, t), atol=1e-12)


def rd_set_and_field():
    grid = RdGrid(n_s=10, n_t=4, dt_phys=0.2)
    ic = 0.4 + 0.1 * np.sin(np.pi * grid.s)
    problem = RdProblem(grid=grid, nu=0.01, rho=0.02, ic=ic,
                        g_left=0.003, g_right=-0.001, delta=1e-10)
    return rd_constraints(problem), simulate_rd(problem).ravel()


def test_decomposed_gauss_newton_step_evaluates_the_faces_twice(monkeypatch):
    # One evaluation before the single step and one after it; the pull-back
    # is not evaluated a third time to test its feasibility.
    cs, field = rd_set_and_field()
    rng = stream_rng(41, 6)
    real = ConstraintSet.face_values
    calls = []

    def spy(self, x):
        calls.append(np.shape(x))
        return real(self, x)

    monkeypatch.setattr(ConstraintSet, "face_values", spy)
    for _ in range(5):
        x0 = rng.standard_normal(field.size)
        t = rng.uniform(0.1, 1.0)
        x = interpolate(x0, field + 1e-3 * rng.standard_normal(field.size), t)
        calls.clear()
        out = project_decomposed(x, x0, t, cs, 1)
        assert not np.array_equal(out, x)
        assert calls == [(field.size,)] * 2


@pytest.mark.parametrize("scale", [0.0, 1e-9, 1e-6, 1e-3])
def test_decomposed_is_bitwise_the_feasibility_checked_formula(scale):
    # The two-evaluation rule it replaces: a copy of the state when its
    # pull-back is exactly feasible, else the projected pull-back mapped
    # back along the path.
    cs, field = rd_set_and_field()
    rng = stream_rng(41, 7)
    kinds = set()
    for _ in range(20):
        x0 = rng.standard_normal(field.size)
        t = rng.uniform(0.05, 1.0)
        x = interpolate(x0, field + scale * rng.standard_normal(field.size), t)
        z = recover_x1(x, x0, t)
        viol = max_violation(cs, z)
        if viol == 0.0:
            want = x.copy()
        elif viol > 1e-10:
            want = interpolate(x0, project(z, cs, 1), t)
        else:
            continue
        kinds.add(viol == 0.0)
        assert project_decomposed(x, x0, t, cs, 1).tobytes() == want.tobytes()
    assert kinds == {scale == 0.0}


def test_decomposed_keeps_a_state_the_route_leaves_in_place():
    # The pull-back violates by about 5e-11, inside Gauss-Newton's 1e-10
    # tolerance, so the route returns it unmoved and so does the state,
    # where a round trip through the path map would change its last bits.
    d = 8
    cs = ConstraintSet((SmoothScalar(d, lambda x: float(x[0]) - 1.0,
                                     lambda x: np.eye(1, d)[0]),))
    rng = stream_rng(41, 8)
    x0 = rng.standard_normal(d)
    x1 = rng.standard_normal(d)
    x1[0] = 1.0 + 5e-11
    t = 0.3
    x = interpolate(x0, x1, t)
    z = recover_x1(x, x0, t)
    assert 0.0 < max_violation(cs, z) <= 1e-10
    assert not np.array_equal(interpolate(x0, z, t), x)
    out = project_decomposed(x, x0, t, cs)
    assert np.array_equal(out, x)
    assert out is not x


# --- shared invariants ------------------------------------------------------------------


def test_projections_are_idempotent():
    rng = stream_rng(41, 3)
    half = LinearIneq(np.array([1.0, -0.7]), 0.1)
    band = LinearBand(np.array([0.5, 1.0]), -0.4, 0.4)
    pair = ConstraintSet((half, band), tol=1e-10)
    ring = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    for _ in range(50):
        x = 3.0 * rng.standard_normal(2)
        y = half.project(x)
        assert np.linalg.norm(half.project(y) - y) <= 1e-10
        y = band.project(x)
        assert np.linalg.norm(band.project(y) - y) <= 1e-10
        y = project_pocs(x, pair).x_out
        assert np.linalg.norm(project_pocs(y, pair).x_out - y) <= 1e-10
        if np.linalg.norm(x) > 1e-3:
            y = gauss_newton_project(x, ring).x_out
            z = gauss_newton_project(y, ring).x_out
            assert np.linalg.norm(z - y) <= 1e-10


def test_closed_form_projections_minimize_distance():
    rng = stream_rng(41, 4)
    half = LinearIneq(np.array([1.2, -0.5]), 0.2)
    band = LinearBand(np.array([0.3, 1.0]), -0.6, 0.1)
    x = np.array([2.0, 1.5])
    p_half = half.project(x)
    p_band = band.project(x)
    for _ in range(1000):
        y = 4.0 * rng.standard_normal(2)
        if half.face_values(y)[0] <= 0.0:
            assert np.linalg.norm(p_half - x) <= np.linalg.norm(y - x) + 1e-12
        if np.all(band.face_values(y) <= 0.0):
            assert np.linalg.norm(p_band - x) <= np.linalg.norm(y - x) + 1e-12


def test_refined_endpoint_stays_feasible_along_the_path():
    # Feasibility propagation: a refined clean sample keeps the transported
    # constraints satisfied at every grid time.
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.4]), -0.2),
                        LinearBand(np.array([0.2, -1.0]), -0.9, 0.9)))
    rng = stream_rng(41, 5)
    for _ in range(20):
        x0 = rng.standard_normal(2)
        raw = 2.0 * rng.standard_normal(2)
        x1 = final_refine(raw, cs).x_out
        assert max_violation(cs, x1) <= cs.tol
        for t in np.linspace(0.1, 1.0, 10):
            x_t = interpolate(x0, x1, t)
            moved = transport_set(cs, t, x0)
            assert max_violation(moved, x_t) <= 1e-12
