"""Seeded oracle battery behind ``chanceflow verify``.

Each check re-derives a result through an independent route (Monte Carlo,
exhaustive lattice search, dense KKT enumeration, closed forms) and compares
it with the fast implementation. Everything is fixed-seed, so the battery is
deterministic: it either passes everywhere or names the broken invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .chance import Scheduler, tighten_linear, tighten_set, transport_set
from .constraints import (ConstraintSet, LinearBand, LinearIneq, MinDistance,
                          max_violation)
from .flow import (EmpiricalTarget, FlowModel, GaussianMixtureTarget,
                   interpolate, recover_x1)
from .numerics import normal_cdf, normal_quantile, solve_spd, stream_rng
from .oracles import (BruteForceConfig, brute_force_project,
                      halfspace_qp_project, mc_chance, sliced_w2)
from .projection import (final_refine, gauss_newton_project, project_decomposed,
                         project_pocs)
from .reaction_diffusion import (RdGrid, RdProblem, rd_constraints,
                                 sample_rd_problem, simulate_rd)
from .samplers import SamplerConfig, run_batch

__all__ = ["run_all", "CHECKS"]

CHECKS = []


def _check(fn):
    CHECKS.append(fn)
    return fn


def _assert(cond: bool, message: str):
    if not cond:
        raise AssertionError(message)


@_check
def quantile_cdf_roundtrip():
    ps = np.concatenate([np.linspace(1e-9, 1 - 1e-9, 41), [1e-12, 1 - 1e-12]])
    worst = max(abs(normal_cdf(normal_quantile(p)) - p) for p in ps)
    _assert(worst <= 1e-12, f"quantile/CDF roundtrip error {worst:.3e}")


@_check
def spd_solve_residual():
    rng = stream_rng(11, 0)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    mat = q @ np.diag(np.geomspace(1e-4, 1e2, 40)) @ q.T
    mat = 0.5 * (mat + mat.T)
    rhs = rng.standard_normal(40)
    x = solve_spd(mat, rhs)
    res = float(np.linalg.norm(mat @ x - rhs))
    _assert(res <= 1e-10 * (1.0 + float(np.linalg.norm(rhs))),
            f"SPD residual {res:.3e}")


@_check
def velocity_single_gaussian_closed_form():
    # One component: the posterior mean has the closed form
    # mu + t s^2 (x - t mu) / (t^2 s^2 + (1-t)^2).
    model = FlowModel(GaussianMixtureTarget(np.array([[0.7, -1.2]]), 0.8))
    rng = stream_rng(12, 0)
    for t in (0.2, 0.5, 0.9):
        x = rng.standard_normal(2)
        var = t * t * 0.64 + (1 - t) ** 2
        xhat = model.target.means[0] + t * 0.64 * (x - t * model.target.means[0]) / var
        expect = (xhat - x) / (1 - t)
        got = model.velocity(x, t)
        _assert(np.allclose(got, expect, atol=1e-12),
                f"velocity mismatch at t={t}")


@_check
def tightened_boundary_hits_target_probability():
    c = LinearIneq(np.array([1.0, 2.0]), 0.7)
    t, prob = 0.5, 0.9
    tc = tighten_linear(c, t, prob)
    x_t = tc.b * c.a / float(c.a @ c.a)
    est = mc_chance(c, x_t, t, 200_000, stream_rng(13, 0))
    _assert(abs(est.p_hat - prob) <= 4 * est.stderr,
            f"MC probability {est.p_hat:.4f} vs target {prob}")


@_check
def tightening_degenerates_at_t1():
    c = LinearIneq(np.array([0.3, -1.1, 0.4]), -0.25)
    tc = tighten_linear(c, 1.0, 0.99)
    _assert(tc.b == c.b, "t=1 bound differs from the deterministic bound")
    # The quadratic (a.x)^2 <= 2, as the config reads it.
    q = LinearBand(np.array([1.0, 1.0, 0.0]), -math.sqrt(2.0), math.sqrt(2.0))
    half, band = tighten_set(ConstraintSet((c, q)), 1.0, Scheduler(0.5)).members
    _assert(half.b == c.b and band.lo == -math.sqrt(2.0) and band.hi == math.sqrt(2.0),
            "marginal set at t=1 is not the original set")


@_check
def recover_x1_propagates_constraint_values():
    rng = stream_rng(14, 0)
    c = LinearBand(np.array([0.5, -0.3, 1.1]), -math.sqrt(1.7), math.sqrt(1.7))
    for _ in range(20):
        x0, x1 = rng.standard_normal(3), rng.standard_normal(3)
        g1 = c.face_values(x1)
        for t in np.linspace(0.1, 1.0, 10):
            x_t = interpolate(x0, x1, t)
            gt = c.face_values(recover_x1(x_t, x0, t))
            _assert(np.all(np.abs(gt - g1) <= 1e-12 * (1 + np.abs(g1))),
                    f"propagated value drifts at t={t}")


@_check
def pathwise_projection_commutes():
    rng = stream_rng(15, 0)
    cs = ConstraintSet((LinearIneq(np.array([1.0, -0.5]), -0.2),))
    for _ in range(50):
        x0, x = rng.standard_normal(2), rng.standard_normal(2)
        t = float(rng.uniform(0.1, 0.99))
        via_clean = project_decomposed(x, x0, t, cs)
        shifted = transport_set(cs, t, x0)
        direct = shifted.members[0].project(x)
        _assert(np.allclose(via_clean, direct, atol=1e-9),
                "decomposed projection disagrees with direct projection")


@_check
def least_distance_matches_kkt_enumeration():
    rng = stream_rng(16, 0)
    band = LinearBand(np.array([1.0, 0.5]), -0.8, 0.6)
    members = (LinearIneq(np.array([1.0, 0.0]), 0.0),
               LinearIneq(np.array([0.6, 0.8]), -0.1),
               LinearIneq(np.array([-0.2, 1.0]), 0.3),
               band)
    halfspaces = members[:3] + (LinearIneq(-band.a, -band.lo), LinearIneq(band.a, band.hi))
    cs = ConstraintSet(members, tol=1e-12)
    for _ in range(25):
        x = 2.0 * rng.standard_normal(2)
        got = project_pocs(x, cs).x_out
        expect = halfspace_qp_project(x, halfspaces)
        _assert(np.allclose(got, expect, rtol=0.0, atol=1e-12),
                "least-distance projection disagrees with KKT enumeration")


@_check
def gauss_newton_matches_closed_form():
    rng = stream_rng(17, 0)
    c = LinearIneq(np.array([2.0, -1.0, 0.5]), 0.4)
    cs = ConstraintSet((c,))
    for _ in range(25):
        x = 3.0 * rng.standard_normal(3)
        got = gauss_newton_project(x, cs, 50).x_out
        _assert(np.allclose(got, c.project(x), atol=1e-5),
                "Gauss-Newton drifts from the closed-form projection")


@_check
def lattice_oracle_matches_ball_complement():
    c = MinDistance(np.array([0.2, -0.1]), 0.8)
    cs = ConstraintSet((c,))
    x = np.array([0.5, 0.1])
    h = 2e-3
    got = brute_force_project(x, cs, BruteForceConfig(mode="grid", h=h,
                                                      lo=-1.5, hi=1.5))
    diff = x - c.center
    expect = c.center + c.radius * diff / np.linalg.norm(diff)
    _assert(float(np.linalg.norm(got - expect)) <= 2 * h * math.sqrt(2),
            "lattice projection misses the closed-form ring point")


@_check
def sliced_w2_point_masses():
    a = np.zeros((64, 3))
    b = np.tile(np.array([1.0, -2.0, 2.0]), (64, 1))
    got = sliced_w2(a, b, n_projections=4096, rng=stream_rng(18, 0))
    _assert(abs(got - 3.0) <= 0.15, f"sliced W2 {got:.3f} should be near 3.0")


@_check
def rd_simulation_satisfies_own_constraints():
    problem = sample_rd_problem(RdGrid(), stream_rng(19, 0))
    field = simulate_rd(problem).reshape(-1)
    viol = max_violation(rd_constraints(problem), field)
    _assert(viol <= 1e-8, f"simulator violates its conservation law by {viol:.3e}")


@_check
def rd_heat_mode_decay():
    grid = RdGrid()
    ic = 0.5 + 0.1 * np.cos(np.pi * grid.s / grid.length)
    problem = RdProblem(grid=grid, nu=0.005, rho=0.0, ic=ic)
    frames = simulate_rd(problem)
    total_t = (grid.n_t - 1) * grid.dt_phys
    expect = math.exp(-problem.nu * math.pi**2 * total_t)
    ratio = (frames[-1, 0] - 0.5) / (frames[0, 0] - 0.5)
    _assert(abs(ratio - expect) <= 0.05 * expect,
            f"heat mode decay {ratio:.4f} vs analytic {expect:.4f}")


@_check
def ccfm_terminal_feasibility():
    model = FlowModel(GaussianMixtureTarget(np.array([[-2.0, 0.0], [2.0, 0.0]]), 0.4))
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),))
    cfg = SamplerConfig(algorithm="ccfm", n_steps=50, seed=3, samples=8)
    for record in run_batch(model, cs, cfg):
        _assert(max_violation(cs, record.x1) <= cs.tol,
                "a CCFM sample ended infeasible")


@_check
def final_refine_reaches_set_tolerance():
    rng = stream_rng(20, 0)
    cs = ConstraintSet((LinearBand(np.array([1.0, 0.4]), -math.sqrt(0.5), math.sqrt(0.5)),
                        LinearIneq(np.array([0.0, 1.0]), 0.6)))
    for _ in range(10):
        report = final_refine(2.0 * rng.standard_normal(2), cs)
        _assert(report.converged and report.final_max_violation <= cs.tol,
                "final refinement missed the set tolerance")


@_check
def batches_are_thread_count_invariant():
    model = FlowModel(EmpiricalTarget(np.array([[1.0, 0.5], [-1.0, 0.2],
                                                [0.0, -1.0]])))
    cs = ConstraintSet((LinearIneq(np.array([0.0, 1.0]), 0.4),))
    cfg = SamplerConfig(algorithm="ccfm", n_steps=20, seed=5, samples=6)
    serial = run_batch(model, cs, cfg, threads=1)
    threaded = run_batch(model, cs, cfg, threads=3)
    for a, b in zip(serial, threaded):
        _assert(np.array_equal(a.x1, b.x1) and np.array_equal(a.states, b.states),
                "thread count changed a sampled trajectory")


def run_all() -> int:
    """Run every check; prints one line per check, returns 0 or 3."""
    failures = 0
    for fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - any failure means a broken invariant
            failures += 1
            print(f"[FAIL] {fn.__name__}: {exc}")
        else:
            print(f"[ ok ] {fn.__name__}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
        return 3
    print(f"all {len(CHECKS)} checks passed")
    return 0
