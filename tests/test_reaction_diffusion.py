"""Reaction-diffusion benchmark: simulator, constraint assembly, and metrics."""

import inspect
import math
import textwrap

import numpy as np
import pytest
import scipy.linalg

from chanceflow import (ConstraintSet, EmpiricalTarget, FlowModel, NumericalError,
                        RdGrid, RdProblem, SamplerConfig, SmoothScalar, final_refine,
                        max_violation, moment_errors, rd_constraints, rd_dataset,
                        rd_violation_split, run_batch, simulate_rd)
from chanceflow import oracles, projection, samplers
from chanceflow.config import parse_config
from chanceflow.constraints import LinearBand
from chanceflow.numerics import stream_rng
from chanceflow.oracles import jacobian_active
from chanceflow.reaction_diffusion import (MassBalance, _diffusion_operator, as_field,
                                           sample_rd_problem)

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


def loop_diffusion_operator(grid, nu):
    """The flux-divergence operator built cell by cell, as a reference."""
    n = grid.n_s
    coeff = nu / grid.ds
    lap = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            lap[i, i - 1] += coeff
            lap[i, i] -= coeff
        if i < n - 1:
            lap[i, i + 1] += coeff
            lap[i, i] -= coeff
    return lap


def scipy_simulate_rd(problem):
    """simulate_rd on SciPy's cho_factor/cho_solve and the loop-built
    operator: the reference for the direct LAPACK calls."""
    grid = problem.grid
    w = grid.cell_weights
    lhs = np.diag(w) - grid.dt_phys * loop_diffusion_operator(grid, problem.nu)
    factor = scipy.linalg.cho_factor(lhs)
    boundary = np.zeros(grid.n_s)
    boundary[0] = problem.g_left
    boundary[-1] = -problem.g_right
    field = np.empty((grid.n_t, grid.n_s))
    field[0] = v = problem.ic
    for k in range(1, grid.n_t):
        rhs = w * v + grid.dt_phys * (boundary + problem.rho * v * (1.0 - v) * w)
        field[k] = v = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    return field


@pytest.mark.parametrize("n_s", [4, 5, 8, 32, 33, 128])
def test_diffusion_operator_is_bitwise_the_cell_loop(n_s):
    grid = RdGrid(n_s=n_s, n_t=3, length=1.3, dt_phys=0.25)
    for nu in (0.005, 0.7, 3.0e-4):
        lap = _diffusion_operator(grid, nu)
        assert lap.tobytes() == loop_diffusion_operator(grid, nu).tobytes()


def test_simulation_is_bitwise_the_scipy_wrapper_reference():
    for k, grid in enumerate((GRID, RdGrid(n_s=8, n_t=5, dt_phys=0.4),
                              RdGrid(n_s=57, n_t=9, length=2.0, dt_phys=0.1))):
        for i in range(4):
            problem = sample_rd_problem(grid, stream_rng(61 + k, i), nu=0.005 * (i + 1),
                                        rho=0.01 * i)
            assert simulate_rd(problem).tobytes() == scipy_simulate_rd(problem).tobytes()


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


def per_cell_bands(problem):
    """The initial condition as one one-row band per cell of frame 0: the
    layout the block band replaced, kept here as its oracle."""
    grid = problem.grid
    bands = []
    for i in range(grid.n_s):
        a = np.zeros(grid.d)
        a[i] = 1.0
        bands.append(LinearBand(a, problem.ic[i] - problem.delta, problem.ic[i] + problem.delta))
    return bands


def test_ic_block_matches_per_cell_bands():
    # Layout: one band of n_s unit rows for frame 0, then the single mass
    # member carrying both sides of every later frame's balance. Everything
    # the samplers read off the set is bitwise that of one band per cell.
    problem = sample_rd_problem(GRID, stream_rng(51, 3))
    cs = rd_constraints(problem)
    assert cs.n_faces == 2 * GRID.n_s + 2 * (GRID.n_t - 1)
    ic, mass = cs.members
    assert isinstance(ic, LinearBand) and ic.a.shape == (GRID.n_s, GRID.d)
    assert isinstance(mass, SmoothScalar)
    assert mass.n_faces == 2 * (GRID.n_t - 1)
    cells = per_cell_bands(problem)
    oracle = ConstraintSet((*cells, mass), tol=cs.tol)

    rng = stream_rng(51, 11)
    sim = simulate_rd(problem).ravel()
    far = sim.copy()
    far[:GRID.n_s] += rng.uniform(-8.0, 8.0, GRID.n_s)
    xs = np.stack([sim, sim + 0.01 * rng.standard_normal(GRID.d), far])
    assert np.array_equal(cs.face_values(xs), oracle.face_values(xs))
    assert rd_violation_split(xs, cs) == rd_violation_split(xs, oracle)
    for x in xs:
        assert np.array_equal(cs.face_values(x), oracle.face_values(x))
        active = rng.permutation(cs.n_faces)[:40]
        assert np.array_equal(jacobian_active(cs, x, active), jacobian_active(oracle, x, active))
        got, want = final_refine(x, cs), final_refine(x, oracle)
        assert np.array_equal(got.x_out, want.x_out)
        assert got.history == want.history and got.converged

    # The polish clips each cell as x_i + (c_i - x_i), which is not always c_i.
    want = far
    for band in cells:
        want = band.project(want)
    got = ic.project(far)
    assert np.array_equal(got, want)
    x = far[:GRID.n_s]
    c = np.clip(x, ic.lo, ic.hi)
    assert np.array_equal(got[:GRID.n_s], x + (c - x))
    assert np.any(got[:GRID.n_s] != c)
    assert np.array_equal(got[GRID.n_s:], far[GRID.n_s:])


def test_perturbed_initial_frame_gives_band_violation():
    problem = sample_rd_problem(GRID, stream_rng(51, 4))
    cs = rd_constraints(problem)
    x = simulate_rd(problem).ravel()
    x[5] += 0.1  # grid point 5 of frame 0
    cv_ic, cv_cl = rd_violation_split(np.stack([x, x]), cs)
    assert cv_ic == pytest.approx(0.1 - problem.delta, rel=1e-9)
    assert cv_cl > 0.0  # the mass of frame 0 moved too


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
    fields, _ = rd_dataset(GRID, 3, seed=51)
    assert moment_errors(fields, fields) == (0.0, 0.0)


def test_metrics_constant_shift():
    fields, _ = rd_dataset(GRID, 3, seed=52)
    mmse, smse = moment_errors(fields + 0.1, fields)
    assert mmse == pytest.approx(0.01, rel=1e-12)
    assert smse == pytest.approx(0.0, abs=1e-28)


def test_metrics_match_naive_double_loop():
    rng = stream_rng(51, 9)
    gen = rng.standard_normal((5, 12))
    ref = rng.standard_normal((7, 12))
    mmse_got, smse_got = moment_errors(gen, ref)
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
    assert mmse_got == pytest.approx(mmse, rel=1e-12)
    assert smse_got == pytest.approx(smse, rel=1e-12)


def test_metrics_require_two_generated_samples():
    # The std error needs two generated samples; with one it is None, an
    # empty CSV cell, while the mean error is still reported.
    ref = np.arange(12.0).reshape(3, 4)
    assert moment_errors(np.zeros((1, 4)), ref) == (np.mean(ref.mean(axis=0) ** 2), None)
    assert moment_errors(np.zeros((2, 4)), ref)[1] == np.mean(ref.std(axis=0) ** 2)


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
                        mode="pathwise")
    records = run_batch(model, cs, cfg)
    cv_ic, cv_cl = rd_violation_split(np.stack([r.x1 for r in records]), cs)
    for rec in records:
        assert rec.refine_converged
    assert cv_ic <= 1e-10
    assert cv_cl <= 1e-8


def test_pathwise_run_never_forms_a_dense_jacobian(monkeypatch):
    # Gauss-Newton reads the set through its row blocks. Once the set is
    # built (the mass law's finite-difference check reads its dense rows),
    # neither the per-step corrections nor final_refine evaluate the mass
    # law's dense jacobian or stack rows with oracles.jacobian_active.
    grid = RdGrid(n_s=8, n_t=4, dt_phys=0.2)
    fields, problems = rd_dataset(grid, 5, seed=3)
    cs = rd_constraints(problems[0])
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((name, type(out).__name__))
            return out
        monkeypatch.setattr(owner, name, wrapper)

    spy(MassBalance, "jacobian")
    spy(MassBalance, "row_block")
    spy(LinearBand, "row_block")
    spy(oracles, "jacobian_active")
    monkeypatch.setattr(projection, "jacobian_active", oracles.jacobian_active,
                        raising=False)
    cfg = SamplerConfig(algorithm="ccfm", n_steps=10, seed=3, samples=2, mode="pathwise")
    records = run_batch(FlowModel(EmpiricalTarget(fields[1:])), cs, cfg)
    assert all(rec.refine_converged for rec in records)
    assert {("row_block", "MassRows"), ("row_block", "CoordinateRows")} <= set(calls)
    assert not [name for name, _ in calls if name != "row_block"]


def test_per_step_gauss_newton_may_stop_short_of_the_set(tmp_path, monkeypatch):
    # With one update per step (samplers._STEP_GN_ITERS), a per-step
    # Gauss-Newton pass often ends above its tolerance. That is the policy,
    # not a failure: terminal feasibility comes from final_refine, at its
    # default budget, which every record reports.
    path = tmp_path / "rd_small.cfg"
    path.write_text(textwrap.dedent("""\
        [experiment]
        id = rd_small
        seed = 2
        samples = 3
        [model]
        kind = reaction_diffusion
        n_s = 8
        n_t = 4
        dt_phys = 0.2
        train_fields = 5
        [sampler]
        algorithm = ccfm
        mode = pathwise
        steps = 20
        """), encoding="utf-8")
    cfg = parse_config(str(path))
    (scfg,) = cfg.samplers
    step_budget = samplers._STEP_GN_ITERS
    refine_budget = inspect.signature(projection.final_refine).parameters["budget"].default
    assert (step_budget, refine_budget) == (1, 30)
    calls = []
    real = projection.gauss_newton_project

    def spy(x, cs, max_iters=30, tol=1e-10):
        report = real(x, cs, max_iters, tol)
        calls.append((max_iters, report))
        return report

    monkeypatch.setattr(projection, "gauss_newton_project", spy)
    records = run_batch(cfg.model, cfg.cs, scfg)
    per_step = [report for iters, report in calls if iters == step_budget]
    refines = [report for iters, report in calls if iters == refine_budget]
    assert len(per_step) + len(refines) == len(calls)
    assert len(refines) == len(records)
    assert any(not report.converged for report in per_step)
    for rec in records:
        assert rec.refine_converged
        assert rec.final_violation <= cfg.cs.tol
