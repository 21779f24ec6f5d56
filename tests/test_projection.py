"""Projection operators: closed forms, Dykstra cycles, Gauss-Newton, and the
path-decomposed projection."""

import numpy as np
import pytest

from chanceflow import (ConstraintSet, GnConfig, LinearBand, LinearIneq,
                        MinDistance, Scheduler, SmoothScalar,
                        final_refine, gauss_newton_project, interpolate,
                        max_violation, project, project_decomposed,
                        project_pocs, recover_x1, tighten_set)
from chanceflow.chance import tighten_linear
from chanceflow.oracles import halfspace_qp_project
from chanceflow.numerics import stream_rng
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
    # Dykstra cycles only through members with a closed-form projection.
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


@pytest.mark.parametrize("members, route", [
    ((), "identity"),
    ((_HALF,), "closed_form"),
    ((_BAND,), "closed_form"),
    ((_HALF, _BAND), "pocs"),
    ((_HALF, _BAND, LinearIneq(np.array([0.0, 0.0, 1.0]), -0.1)), "pocs"),
    ((_RING,), "gauss_newton"),
    ((_HALF, _SMOOTH), "gauss_newton"),
])
def test_project_dispatch(members, route):
    cs = ConstraintSet(members, tol=1e-9)
    gn = GnConfig(max_iters=3)
    rng = stream_rng(41, 6)
    for _ in range(20):
        x = 2.0 * rng.standard_normal(3)
        got = project(x, cs, gn)
        if route == "identity":
            want = x
        elif route == "closed_form":
            want = members[0].project(x)
        elif route == "pocs":
            want = project_pocs(x, cs).x_out
        else:
            want = gauss_newton_project(x, cs, gn).x_out
        assert np.array_equal(got, want)


# --- cyclic projections ---------------------------------------------------------


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
    rng = stream_rng(41, 0)
    for _ in range(30):
        cons = [LinearIneq(rng.standard_normal(3), rng.uniform(-0.5, 0.5))
                for _ in range(3)]
        x = 2.0 * rng.standard_normal(3)
        try:
            want = halfspace_qp_project(x, cons)
        except Exception:
            continue  # randomly inconsistent triple; Dykstra has no target
        report = project_pocs(x, ConstraintSet(cons, tol=1e-10))
        assert np.linalg.norm(report.x_out - want) <= 1e-8


def test_pocs_stops_at_the_set_tolerance():
    # Two boundaries 6 degrees apart: Dykstra converges slowly to their
    # apex, so a looser cs.tol must stop it in fewer cycles, each report
    # within its own set's tolerance.
    cons = (LinearIneq(np.array([1.0, 0.05]), 0.0), LinearIneq(np.array([1.0, -0.05]), 0.0))
    x = np.array([1.0, 0.01])  # projects onto the apex
    loose = project_pocs(x, ConstraintSet(cons, tol=1e-4))
    tight = project_pocs(x, ConstraintSet(cons, tol=1e-8))
    assert loose.converged
    assert loose.final_max_violation <= 1e-4
    assert tight.final_max_violation <= 1e-8
    assert loose.iterations < tight.iterations


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
    # A violation inside (0, tol] is not an exit: one cycle moves it onto
    # the face.
    inside_tol = project_pocs(np.array([1e-12, 0.0]), cs)
    assert inside_tol.iterations == 1
    assert np.array_equal(inside_tol.x_out, [0.0, 0.0])


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
    report = gauss_newton_project(x, cs, GnConfig(max_iters=1, tol=1e-12))
    # One ridge-regularized iteration lands within a lambda-sized perturbation.
    assert np.linalg.norm(report.x_out - c.project(x)) <= 1e-5


def test_gn_min_distance_reaches_ring():
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    report = gauss_newton_project(np.array([0.5, 0.0]), cs, GnConfig(max_iters=30, tol=1e-10))
    assert report.converged
    assert np.linalg.norm(report.x_out) >= 1.0 - 1e-8
    assert np.allclose(report.x_out, [1.0, 0.0], atol=1e-6)


def test_gn_escapes_min_distance_center():
    cs = ConstraintSet((MinDistance(np.array([0.3, -0.7]), 0.5),))
    report = gauss_newton_project(np.array([0.3, -0.7]), cs, GnConfig(max_iters=50, tol=1e-10))
    assert report.converged
    assert np.linalg.norm(report.x_out - [0.3, -0.7]) >= 0.5 - 1e-8


def test_gn_violation_history_nonincreasing_on_convex_set():
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, 1.0]), 0.0),
        LinearBand(np.array([1.0, -1.0]), -0.2, 0.2),
    ))
    report = gauss_newton_project(np.array([2.0, 1.0]), cs, GnConfig(max_iters=40, tol=1e-10))
    hist = report.history
    assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
    assert report.converged


def test_gn_reports_budget_exhaustion():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    report = gauss_newton_project(np.array([5.0]), cs, GnConfig(max_iters=0, tol=1e-12))
    assert not report.converged
    assert report.iterations == 0


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


def test_decomposed_rejects_t0():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    with pytest.raises(ValueError):
        project_decomposed(np.array([1.0]), np.array([0.0]), 0.0, cs)


def test_decomposed_equals_projection_onto_transported_halfspace():
    rng = stream_rng(41, 2)
    sched = Scheduler(1.0)
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
        moved = tighten_set(cs, t, sched, "pathwise", x0=x0)
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
    sched = Scheduler(1.0)
    for _ in range(20):
        x0 = rng.standard_normal(2)
        raw = 2.0 * rng.standard_normal(2)
        x1 = final_refine(raw, cs).x_out
        assert max_violation(cs, x1) <= cs.tol
        for t in np.linspace(0.1, 1.0, 10):
            x_t = interpolate(x0, x1, t)
            moved = tighten_set(cs, t, sched, "pathwise", x0=x0)
            assert max_violation(moved, x_t) <= 1e-12
