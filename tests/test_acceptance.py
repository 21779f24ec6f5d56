"""Acceptance gate: the ten headline guarantees, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing gives the
pass/fail line for each criterion, and every test prints its measured margins
on top. These are deliberately end-to-end (shipped configs, real Monte Carlo,
independent oracles) rather than fast unit checks; the whole gate takes a
couple of minutes.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from chanceflow import (BruteForceConfig, ConstraintSet, FlowModel,
                        GaussianMixtureTarget, LinearBand,
                        LinearIneq, MinDistance, Scheduler,
                        SmoothScalar, SamplerConfig, brute_force_project,
                        feasibility_report, gauss_newton_project,
                        interpolate, max_violation, mc_chance,
                        normal_quantile, project, project_decomposed,
                        project_pocs, recover_x1,
                        rd_constraints, rejection_sample, run_batch,
                        sample_rd_problem, simulate_rd, stream_rng,
                        tighten_set, RdGrid, RdProblem)
from chanceflow.chance import tighten_band, tighten_linear
from chanceflow.config import (DIRECTION_STREAM, REFERENCE_STREAM,
                               build_workbench, parse_config)
from chanceflow.cli import run_experiment
from chanceflow.oracles import halfspace_qp_project

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

T_CHOICES = np.array([0.2, 0.5, 0.8])
PROB_CHOICES = np.array([0.9, 0.95, 0.99])
N_MC = 200_000


def quadratic(a, b):
    """The band |a.x| <= sqrt(b) that a config's quadratic (a.x)^2 <= b
    parses to."""
    root = math.sqrt(b)
    return LinearBand(a, -root, root)


def random_direction(rng, d):
    a = rng.standard_normal(d)
    while np.linalg.norm(a) < 0.3:
        a = rng.standard_normal(d)
    return a


def test_c01_tightened_boundary_hits_target_probability():
    # Points placed exactly on the tightened halfspace boundary must satisfy
    # the clean constraint with probability prob, to Monte Carlo resolution.
    started = time.perf_counter()
    rng = stream_rng(101, 0)
    worst = 0.0
    for i in range(50):
        d = int(rng.integers(1, 6))
        a = random_direction(rng, d)
        b = float(rng.uniform(-1.5, 1.5))
        t = float(rng.choice(T_CHOICES))
        prob = float(rng.choice(PROB_CHOICES))
        c = LinearIneq(a, b)
        tc = tighten_linear(c, t, prob)
        x_t = tc.b * a / float(a @ a)
        est = mc_chance(c, x_t, t, N_MC, stream_rng(102, i))
        worst = max(worst, abs(est.p_hat - prob) / est.stderr)
        assert abs(est.p_hat - prob) <= 3.0 * est.stderr
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 1 PASS: 50/50 boundary probabilities within 3 stderr "
          f"(worst gap {worst:.2f} stderr), {elapsed:.1f}s")


def test_c02_two_sided_tightening_conservative_everywhere_tight_at_center():
    # Conservativeness: every point of the tightened band keeps the clean
    # two-sided constraint satisfied with probability >= prob. Tightness: when
    # the bound b sits exactly at the critical width, the tightened band
    # collapses to {a.x_t = 0} and the probability there equals prob — the
    # two-tail risk split wastes nothing at that point.
    started = time.perf_counter()
    rng = stream_rng(103, 0)
    floor_margin = np.inf
    for i in range(12):
        d = int(rng.integers(1, 5))
        a = random_direction(rng, d)
        t = float(rng.choice(T_CHOICES))
        prob = float(rng.choice(PROB_CHOICES))
        sigma = (1.0 - t) / t
        z = normal_quantile((1.0 + prob) / 2.0)
        crit = (sigma * float(np.linalg.norm(a)) * z) ** 2
        c = quadratic(a, crit * float(rng.uniform(1.2, 2.5)))
        band = tighten_band(c, t, prob)
        assert -band.lo == band.hi  # a symmetric band
        ortho = rng.standard_normal(d)
        ortho -= (float(ortho @ a) / float(a @ a)) * a
        for k, lam in enumerate((-1.0, -0.5, 0.0, 0.5, 1.0)):
            x_t = lam * band.hi * a / float(a @ a) + 0.3 * ortho
            est = mc_chance(c, x_t, t, N_MC, stream_rng(104, 10 * i + k))
            floor_margin = min(floor_margin, (est.p_hat - prob) / est.stderr)
            assert est.p_hat >= prob - 3.0 * est.stderr
    center_worst = 0.0
    for i in range(8):
        d = int(rng.integers(1, 5))
        a = random_direction(rng, d)
        t = float(rng.choice(T_CHOICES))
        prob = float(rng.choice(PROB_CHOICES))
        sigma = (1.0 - t) / t
        z = normal_quantile((1.0 + prob) / 2.0)
        c = quadratic(a, (sigma * float(np.linalg.norm(a)) * z) ** 2)
        tc = tighten_band(c, t, prob)
        assert tc is None or abs(tc.hi) <= 1e-12  # collapsed band
        est = mc_chance(c, np.zeros(d), t, N_MC, stream_rng(105, i))
        center_worst = max(center_worst, abs(est.p_hat - prob) / est.stderr)
        assert abs(est.p_hat - prob) <= 3.0 * est.stderr
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 PASS: band floor margin {floor_margin:+.2f} stderr, "
          f"worst center gap {center_worst:.2f} stderr, {elapsed:.1f}s")


def test_c03_tightening_degenerates_to_the_original_at_t1():
    rng = stream_rng(106, 0)
    for i in range(300):
        d = int(rng.integers(1, 6))
        a = random_direction(rng, d)
        sched = Scheduler(float(rng.uniform(0.25, 6.0)))
        b = float(rng.uniform(-2.0, 2.0))
        (lin,) = tighten_set(ConstraintSet((LinearIneq(a, b),)), 1.0, sched).members
        assert lin.b == b  # bitwise
        lo, hi = sorted(rng.uniform(-2.0, 2.0, size=2))
        (band,) = tighten_set(ConstraintSet((LinearBand(a, lo, hi),)), 1.0, sched).members
        assert band.hi == hi and band.lo == lo
        qb = float(rng.uniform(0.1, 4.0))
        (band,) = tighten_set(ConstraintSet((quadratic(a, qb),)), 1.0, sched).members
        assert band.hi == math.sqrt(qb) and band.lo == -math.sqrt(qb)

    # The sampler's final correction (projection onto the t=1 tightened set)
    # must coincide with the plain Euclidean projection onto the clean set.
    sched = Scheduler(0.5)
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 6))
        x = 2.0 * rng.standard_normal(d)
        kind = i % 4
        if kind == 0:
            members = (LinearIneq(random_direction(rng, d), float(rng.uniform(-1, 1))),)
            plain = members[0].project(x)
        elif kind == 1:
            lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2))
            members = (LinearBand(random_direction(rng, d), lo, hi),)
            plain = members[0].project(x)
        elif kind == 2:
            a = random_direction(rng, d)
            qb = float(rng.uniform(0.1, 2.0))
            members = (quadratic(a, qb),)
            plain = LinearBand(a, -math.sqrt(qb), math.sqrt(qb)).project(x)
        else:
            members = (LinearIneq(random_direction(rng, d), float(rng.uniform(-1, 1))),
                       LinearIneq(random_direction(rng, d), float(rng.uniform(-1, 1))))
            plain = project_pocs(x, ConstraintSet(members, tol=1e-12)).x_out
        cs = ConstraintSet(members, tol=1e-12)
        final = project(x, tighten_set(cs, 1.0, sched))
        worst = max(worst, float(np.linalg.norm(final - plain)))
        assert np.linalg.norm(final - plain) <= 1e-12
    print(f"criterion 3 PASS: t=1 rhs bitwise-equal on 300 instances; final-step "
          f"vs plain projection worst {worst:.2e} on 1000 instances")


def test_c04_constraint_values_propagate_along_linear_paths():
    rng = stream_rng(107, 0)
    grid = np.arange(1, 11) / 10.0
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 6))
        x0 = rng.standard_normal(d)
        x1 = rng.standard_normal(d)
        kind = i % 5
        if kind == 0:
            member = LinearIneq(random_direction(rng, d), float(rng.uniform(-1, 1)))
        elif kind == 1:
            lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2))
            member = LinearBand(random_direction(rng, d), lo, hi)
        elif kind == 2:
            member = quadratic(0.5 * random_direction(rng, d), float(rng.uniform(0.1, 2.0)))
        elif kind == 3:
            member = MinDistance(0.3 * rng.standard_normal(d), float(rng.uniform(0.3, 1.0)))
        else:
            member = SmoothScalar(d, lambda y: float(y @ y) - 1.0, lambda y: 2.0 * y)
        want = member.face_values(x1)
        for t in grid:
            got = member.face_values(recover_x1(interpolate(x0, x1, t), x0, t))
            diff = float(np.max(np.abs(got - want)))
            worst = max(worst, diff)
            assert diff <= 1e-12
    print(f"criterion 4 PASS: clean-map propagation worst drift {worst:.2e} "
          f"over 1000 paths x 10 grid times")


def test_c05_decomposed_projection_commutes_with_transport():
    rng = stream_rng(108, 0)
    worst_convex = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 5))
        x0 = rng.standard_normal(d)
        x = 2.0 * rng.standard_normal(d)
        t = float(rng.uniform(0.05, 1.0))
        kind = i % 4
        if kind in (0, 1):
            a = random_direction(rng, d)
            b = float(rng.uniform(-1.0, 1.0))
            members = (LinearIneq(a, b),)
            shift = (1.0 - t) * float(a @ x0)
            direct = LinearIneq(a, t * b + shift).project(x)
        elif kind == 2:
            a = random_direction(rng, d)
            lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2))
            members = (LinearBand(a, lo, hi),)
            shift = (1.0 - t) * float(a @ x0)
            direct = LinearBand(a, t * lo + shift, t * hi + shift).project(x)
        else:
            a1, a2 = random_direction(rng, d), random_direction(rng, d)
            while abs(float(a1 @ a2) / (np.linalg.norm(a1) * np.linalg.norm(a2))) > 0.9:
                a2 = random_direction(rng, d)
            b1, b2 = rng.uniform(-1.0, 1.0, size=2)
            members = (LinearIneq(a1, float(b1)), LinearIneq(a2, float(b2)))
            moved = [LinearIneq(m.a, t * m.b + (1.0 - t) * float(m.a @ x0))
                     for m in members]
            direct = halfspace_qp_project(x, moved)
        got = project_decomposed(x, x0, t, ConstraintSet(members, tol=1e-12))
        worst_convex = max(worst_convex, float(np.linalg.norm(got - direct)))
        assert np.linalg.norm(got - direct) <= 1e-9

    h = 4e-3
    worst_ring = 0.0
    for i in range(50):
        rng_i = stream_rng(109, i)
        center = rng_i.uniform(-0.5, 0.5, size=2)
        radius = float(rng_i.uniform(0.5, 1.0))
        x0 = rng_i.standard_normal(2)
        t = float(rng_i.uniform(0.3, 0.95))
        center_t = (1.0 - t) * x0 + t * center
        radius_t = t * radius
        angle = rng_i.uniform(0.0, 2.0 * math.pi)
        frac = float(rng_i.uniform(0.25, 0.85))
        x = center_t + frac * radius_t * np.array([math.cos(angle), math.sin(angle)])
        cs = ConstraintSet((MinDistance(center, radius),), tol=1e-12)
        got = project_decomposed(x, x0, t, cs)
        oracle_cs = ConstraintSet((MinDistance(center_t, radius_t),))
        oracle = brute_force_project(
            x, oracle_cs, BruteForceConfig(h=h, lo=center_t - radius_t - 0.2,
                                           hi=center_t + radius_t + 0.2))
        worst_ring = max(worst_ring, float(np.linalg.norm(got - oracle)))
        assert np.linalg.norm(got - oracle) <= 2.0 * h
    print(f"criterion 5 PASS: convex worst {worst_convex:.2e} (<= 1e-9) on 1000 "
          f"instances; nonconvex worst {worst_ring:.2e} (<= {2 * h}) on 50 rings")


def test_c06_shipped_benchmarks_reach_strict_feasibility():
    for name in ("benchmark_2d.cfg", "rd_ccfm.cfg"):
        started = time.perf_counter()
        cfg = parse_config(CONFIG_DIR / name)
        scfg = replace(cfg.samplers[0], samples=100)
        assert scfg.algorithm == "ccfm"
        bench = build_workbench(cfg, scfg.seed)
        records = run_batch(bench.model, bench.cs, scfg)
        violations = [max_violation(bench.cs, r.x1) for r in records]
        feasible = sum(1 for v in violations if v <= 1e-8)
        elapsed = time.perf_counter() - started
        assert feasible == len(records) == 100
        assert all(r.refine_converged for r in records)
        assert elapsed < 120.0
        print(f"criterion 6 PASS [{name}]: 100/100 samples feasible, worst "
              f"violation {max(violations):.2e}, {elapsed:.1f}s")


def test_c07_ccfm_distorts_the_target_less_than_repeated_projection():
    started = time.perf_counter()
    target = GaussianMixtureTarget(np.array([[-2.0, 0.0], [2.0, 0.0]]), 0.4)
    model = FlowModel(target)
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), -1.0),))
    sw2 = {"ccfm": [], "repeated": []}
    moves = {"ccfm": [], "repeated": []}
    for seed in range(5):
        reference = rejection_sample(target, cs, 512, stream_rng(seed, REFERENCE_STREAM))
        for algorithm in ("ccfm", "repeated"):
            cfg = SamplerConfig(algorithm=algorithm, n_steps=100, seed=seed,
                                samples=200)
            records = run_batch(model, cs, cfg)
            report = feasibility_report(records, cs, reference,
                                        rng=stream_rng(seed, DIRECTION_STREAM))
            assert report.feasibility_rate == 1.0
            sw2[algorithm].append(report.sliced_w2)
            moves[algorithm].append(report.mean_projection_move)
    mean_sw2 = {k: float(np.mean(v)) for k, v in sw2.items()}
    mean_moves = {k: float(np.mean(v)) for k, v in moves.items()}
    elapsed = time.perf_counter() - started
    assert mean_sw2["ccfm"] <= mean_sw2["repeated"]
    assert mean_moves["ccfm"] < mean_moves["repeated"]
    assert elapsed < 60.0
    print(f"criterion 7 PASS: sliced W2 {mean_sw2['ccfm']:.3f} (ccfm) <= "
          f"{mean_sw2['repeated']:.3f} (repeated); mean move "
          f"{mean_moves['ccfm']:.3f} < {mean_moves['repeated']:.3f}, {elapsed:.1f}s")


def test_c08_gauss_newton_matches_closed_form_and_decays_superlinearly():
    rng = stream_rng(110, 0)
    worst = 0.0
    for i in range(200):
        d = int(rng.integers(2, 7))
        c = LinearIneq(random_direction(rng, d), float(rng.uniform(-1.0, 1.0)))
        x = 3.0 * rng.standard_normal(d)
        got = gauss_newton_project(x, ConstraintSet((c,)), 50).x_out
        worst = max(worst, float(np.linalg.norm(got - c.project(x))))
        assert np.linalg.norm(got - c.project(x)) <= 1e-5

    # Smooth full-rank instance: hinge residuals of ||x||^2 <= 1 from outside.
    cs = ConstraintSet((SmoothScalar(2, lambda y: float(y @ y) - 1.0,
                                     lambda y: 2.0 * y),), tol=1e-13)
    report = gauss_newton_project(np.array([1.5, 0.0]), cs, 40, 1e-13)
    assert report.converged
    decays = [v for v in report.history if v > 0.0]
    while len(decays) >= 2 and decays[-1] == decays[-2]:
        decays.pop()
    assert len(decays) >= 4
    tail = decays[-3:]
    ratios = [tail[k + 1] / tail[k] ** 2 for k in range(2)]
    for r, r_next in zip(decays[-3:], decays[-2:]):
        assert r_next <= 10.0 * r * r
    print(f"criterion 8 PASS: GN vs closed form worst {worst:.2e} (<= 1e-5); "
          f"superlinear tail ratios {ratios[0]:.2f}, {ratios[1]:.2f} (r'/r^2)")


def test_c09_reaction_diffusion_is_self_consistent():
    grid = RdGrid(n_s=32, n_t=20, dt_phys=0.25)
    worst = 0.0
    for i in range(5):
        problem = sample_rd_problem(grid, stream_rng(111, i))
        field = simulate_rd(problem).reshape(-1)
        worst = max(worst, max_violation(rd_constraints(problem), field))
        assert worst <= 1e-8
    ic = 0.5 + 0.1 * np.cos(np.pi * grid.s / grid.length)
    frames = simulate_rd(RdProblem(grid=grid, nu=0.005, rho=0.0, ic=ic))
    horizon = (grid.n_t - 1) * grid.dt_phys
    want = math.exp(-0.005 * math.pi**2 * horizon)
    got = (frames[-1, 0] - 0.5) / (frames[0, 0] - 0.5)
    assert abs(got - want) <= 0.05 * want
    print(f"criterion 9 PASS: self-violation worst {worst:.2e} (<= 1e-8); heat "
          f"decay {got:.4f} vs analytic {want:.4f} "
          f"({100 * abs(got - want) / want:.2f}% off)")


def test_c10_shipped_configs_are_deterministic(tmp_path):
    # Each CSV and SVG must also match its golden copy in tests/golden, so a
    # change meant to be bitwise (a faster path to the same numbers) is
    # checked here.
    started = time.perf_counter()
    for name in ("benchmark_2d", "early_freedom", "rd_ccfm"):
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"{name}.t{threads}"
            assert run_experiment(CONFIG_DIR / f"{name}.cfg", out_dir=str(out),
                                  threads=threads) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        golden = {p.name: p.read_bytes() for p in GOLDEN_DIR.glob(f"{name}*")}
        assert sorted(outputs[0]) == sorted(golden)
        for file_name, data in outputs[0].items():
            assert data == golden[file_name], file_name
    elapsed = time.perf_counter() - started
    print(f"criterion 10 PASS: 3 configs byte-identical across reruns and "
          f"thread counts, and to their golden CSVs and SVGs, {elapsed:.1f}s")
