"""Reaction-diffusion benchmark: simulator, constraint assembly, and metrics."""

import math

import numpy as np
import pytest

from chanceflow import (ConstraintSet, EmpiricalTarget, FlowModel,
                        NumericalError, RdGrid, RdProblem, SamplerConfig,
                        SmoothScalar, max_violation, rd_constraints, rd_dataset,
                        rd_metrics, run_batch, simulate_rd)
from chanceflow.constraints import LinearBand
from chanceflow.numerics import stream_rng
from chanceflow.reaction_diffusion import as_field, sample_rd_problem

GRID = RdGrid(n_s=32, n_t=20, dt_phys=0.25)


def make_problem(ic, g_left=0.0, g_right=0.0, nu=0.005, rho=0.01, grid=GRID,
                 delta=1e-10):
    return RdProblem(grid=grid, nu=nu, rho=rho, ic=np.asarray(ic, dtype=float),
                     g_left=g_left, g_right=g_right, delta=delta)


# --- simulator -----------------------------------------------------------------


def test_zero_field_is_an_equilibrium():
    field = simulate_rd(make_problem(np.zeros(GRID.n_s)))
    assert np.all(field == 0.0)


def test_unit_field_is_an_equilibrium():
    field = simulate_rd(make_problem(np.ones(GRID.n_s)))
    assert np.allclose(field, 1.0, atol=1e-12)


def test_first_frame_is_the_initial_condition():
    problem = sample_rd_problem(GRID, stream_rng(51, 0))
    field = simulate_rd(problem)
    assert np.array_equal(field[0], problem.ic)
    assert field.shape == (GRID.n_t, GRID.n_s)


def test_heat_mode_decay_matches_eigenvalue():
    # With rho = 0 the scheme is a pure heat solver; the first Neumann
    # eigenmode cos(pi s / L) decays by exp(-nu pi^2 T) over the horizon.
    ic = 0.5 + 0.1 * np.cos(np.pi * GRID.s / GRID.length)
    field = simulate_rd(make_problem(ic, rho=0.0))
    horizon = (GRID.n_t - 1) * GRID.dt_phys
    want = math.exp(-0.005 * math.pi**2 * horizon)
    got = (field[-1, 0] - 0.5) / (field[0, 0] - 0.5)
    assert abs(got - want) <= 0.05 * want


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergent_run_raises():
    grid = RdGrid(n_s=8, n_t=12, dt_phys=1.0)
    problem = make_problem(np.full(8, -5.0), rho=80.0, grid=grid)
    with pytest.raises(NumericalError):
        simulate_rd(problem)


def test_problem_validation():
    with pytest.raises(ValueError):
        make_problem(np.zeros(GRID.n_s), nu=0.0)
    with pytest.raises(ValueError):
        make_problem(np.zeros(GRID.n_s - 1))
    with pytest.raises(ValueError):
        RdGrid(n_s=2, n_t=20)


def test_as_field_roundtrip():
    problem = sample_rd_problem(GRID, stream_rng(51, 1))
    field = simulate_rd(problem)
    assert np.array_equal(as_field(field.ravel(), GRID), field)
    with pytest.raises(ValueError):
        as_field(np.zeros(GRID.d - 1), GRID)


# --- constraint assembly ----------------------------------------------------------


def test_simulated_field_satisfies_its_own_constraints():
    problem = sample_rd_problem(GRID, stream_rng(51, 2))
    cs = rd_constraints(problem)
    x = simulate_rd(problem).ravel()
    assert max_violation(cs, x) <= 1e-8
    assert max_violation(cs, x) <= cs.tol


def test_constraint_counts():
    # Layout: one IC band per cell of frame 0, then the single mass member
    # carrying both sides of every later frame's balance.
    problem = sample_rd_problem(GRID, stream_rng(51, 3))
    cs = rd_constraints(problem)
    assert cs.n_faces == 2 * GRID.n_s + 2 * (GRID.n_t - 1)
    assert len(cs.members) == GRID.n_s + 1
    assert all(isinstance(m, LinearBand) for m in cs.members[:GRID.n_s])
    mass = cs.members[-1]
    assert isinstance(mass, SmoothScalar)
    assert mass.n_faces == 2 * (GRID.n_t - 1)


def test_perturbed_initial_frame_gives_band_violation():
    problem = sample_rd_problem(GRID, stream_rng(51, 4))
    cs = rd_constraints(problem)
    x = simulate_rd(problem).ravel()
    x[5] += 0.1  # grid point 5 of frame 0
    metrics = rd_metrics(np.stack([x, x]), np.stack([x, x]), cs)
    assert metrics.cv_ic == pytest.approx(0.1 - problem.delta, rel=1e-9)


def test_zero_field_with_fluxes_violates_mass_balance():
    problem = make_problem(np.zeros(GRID.n_s), g_left=0.02, g_right=-0.01)
    cs = rd_constraints(problem)
    x = np.zeros(GRID.d)
    worst = max_violation(cs, x)
    flux_integral = (GRID.n_t - 1) * GRID.dt_phys * abs(problem.g_left - problem.g_right)
    assert worst == pytest.approx(flux_integral - problem.delta, rel=1e-9)


def test_mass_gradients_match_finite_differences():
    grid = RdGrid(n_s=8, n_t=5, dt_phys=0.2)
    problem = sample_rd_problem(grid, stream_rng(51, 5))
    cs = rd_constraints(problem)
    x = simulate_rd(problem).ravel() + 0.01 * stream_rng(51, 6).standard_normal(grid.d)
    smooth = [m for m in cs.members if not isinstance(m, LinearBand)]
    h = 1e-6
    for member in smooth:
        for face in range(member.n_faces):
            analytic = member.jacobian(x)[face]
            fd = np.zeros(grid.d)
            for j in range(grid.d):
                e = np.zeros(grid.d)
                e[j] = h
                fd[j] = (member.face_values(x + e)[face]
                         - member.face_values(x - e)[face]) / (2.0 * h)
            assert np.linalg.norm(analytic - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))


def naive_mass_faces(problem, x):
    """Per-frame loop over the mass law: faces +h_k - delta, -h_k - delta for
    k = 1..n_t-1 and their gradient rows, one frame at a time."""
    grid = problem.grid
    w = grid.cell_weights
    dt = grid.dt_phys
    frames = x.reshape(grid.n_t, grid.n_s)
    values, rows = [], []
    for k in range(1, grid.n_t):
        reaction = 0.0
        for j in range(k):
            reaction += float(w @ (frames[j] * (1.0 - frames[j])))
        defect = (float(w @ frames[k]) - float(w @ frames[0])
                  - dt * (k * (problem.g_left - problem.g_right) + problem.rho * reaction))
        grad = np.zeros((grid.n_t, grid.n_s))
        grad[k] += w
        grad[0] -= w
        for j in range(k):
            grad[j] -= dt * problem.rho * w * (1.0 - 2.0 * frames[j])
        for sign in (1.0, -1.0):
            values.append(sign * defect - problem.delta)
            rows.append(sign * grad.ravel())
    return np.array(values), np.stack(rows)


def test_mass_member_matches_per_frame_loop():
    grid = RdGrid(n_s=12, n_t=9, dt_phys=0.25)
    rng = stream_rng(51, 10)
    problem = sample_rd_problem(grid, rng, rho=0.3)
    mass = rd_constraints(problem).members[-1]
    sim = simulate_rd(problem).ravel()
    states = [sim, sim + 0.01 * rng.standard_normal(grid.d)]
    states += [rng.standard_normal(grid.d) for _ in range(4)]
    for x in states:
        values, jac = naive_mass_faces(problem, x)
        assert np.max(np.abs(mass.face_values(x) - values)) <= 1e-12
        assert np.max(np.abs(mass.jacobian(x) - jac)) <= 1e-12
    # Faces interleave the two sides of each frame: +h_1, -h_1, +h_2, ...
    vals = mass.face_values(states[-1])
    assert np.allclose(vals[0::2] + vals[1::2], -2.0 * problem.delta, rtol=0.0, atol=1e-12)


# --- metrics ------------------------------------------------------------------------


def test_metrics_zero_for_identical_batches():
    problem = sample_rd_problem(GRID, stream_rng(51, 7))
    cs = rd_constraints(problem)
    fields, _ = rd_dataset(GRID, 3, seed=51)
    metrics = rd_metrics(fields, fields, cs)
    assert metrics.mmse == 0.0
    assert metrics.smse == 0.0


def test_metrics_constant_shift():
    problem = sample_rd_problem(GRID, stream_rng(51, 8))
    cs = rd_constraints(problem)
    fields, _ = rd_dataset(GRID, 3, seed=52)
    metrics = rd_metrics(fields + 0.1, fields, cs)
    assert metrics.mmse == pytest.approx(0.01, rel=1e-12)
    assert metrics.smse == pytest.approx(0.0, abs=1e-28)


def test_metrics_match_naive_double_loop():
    rng = stream_rng(51, 9)
    gen = rng.standard_normal((5, 12))
    ref = rng.standard_normal((7, 12))
    cs = ConstraintSet(())
    metrics = rd_metrics(gen, ref, cs)
    d = gen.shape[1]
    mmse = 0.0
    smse = 0.0
    for j in range(d):
        gm = sum(gen[i, j] for i in range(5)) / 5.0
        rm = sum(ref[i, j] for i in range(7)) / 7.0
        gs = math.sqrt(sum((gen[i, j] - gm) ** 2 for i in range(5)) / 5.0)
        rs = math.sqrt(sum((ref[i, j] - rm) ** 2 for i in range(7)) / 7.0)
        mmse += (gm - rm) ** 2 / d
        smse += (gs - rs) ** 2 / d
    assert metrics.mmse == pytest.approx(mmse, rel=1e-12)
    assert metrics.smse == pytest.approx(smse, rel=1e-12)


def test_metrics_require_two_generated_samples():
    cs = ConstraintSet(())
    with pytest.raises(ValueError):
        rd_metrics(np.zeros((1, 4)), np.zeros((3, 4)), cs)
    with pytest.raises(ValueError):
        rd_metrics(np.zeros((2, 4)), np.zeros((3, 5)), cs)


# --- end-to-end sampling on the PDE set ------------------------------------------------


def test_ccfm_reaches_exact_ic_band_and_tiny_mass_defect():
    # Miniature version of the shipped PDE run: generate fields from an
    # empirical target of simulated solutions, constrain to a held-out
    # problem's IC band and mass law, and demand the Table-2 signature:
    # exact IC satisfaction, conservation at the double-precision floor.
    grid = RdGrid(n_s=8, n_t=4, dt_phys=0.2)
    fields, problems = rd_dataset(grid, 5, seed=3)
    model = FlowModel(EmpiricalTarget(fields[1:]))
    cs = rd_constraints(problems[0])
    cfg = SamplerConfig(algorithm="ccfm", n_steps=30, seed=3, samples=4,
                        mode="pathwise", final_budget=30)
    records = run_batch(model, cs, cfg)
    reference = fields[:1]
    finals = np.stack([r.x1 for r in records])
    metrics = rd_metrics(finals, np.concatenate([reference, reference]), cs)
    for rec in records:
        assert rec.refine_converged
    assert metrics.cv_ic <= 1e-10
    assert metrics.cv_cl <= 1e-8
