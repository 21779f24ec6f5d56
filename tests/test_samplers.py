"""Steppers and the four sampling algorithms."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from chanceflow import (ConstraintSet, EmpiricalTarget, FlowModel,
                        GaussianMixtureTarget, LinearBand, LinearIneq, MinDistance,
                        RdGrid, SamplerConfig, Scheduler, max_violation,
                        rd_constraints, rd_dataset, run_batch)
from chanceflow import projection, samplers
from chanceflow.numerics import stream_rng
from chanceflow.samplers import (euler_step, heun_step, sample_ccfm,
                                 sample_eci, sample_repeated, sample_vanilla)


class ConstantField:
    """Velocity field u = (1, 0) regardless of state or time."""

    dim = 2

    def velocity(self, x, t):
        return np.array([1.0, 0.0])


class DecayField:
    """Scalar u = -x, whose exact flow is x(t) = x(0) exp(-t)."""

    dim = 1

    def velocity(self, x, t):
        return -np.asarray(x, dtype=float)


def single_atom_model(*coords):
    return FlowModel(EmpiricalTarget(np.array([list(coords)], dtype=float)))


TWO_MODE = FlowModel(GaussianMixtureTarget(
    means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
    scales=np.array([0.4, 0.4]),
))
SEPARATING = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),))


# --- steppers -------------------------------------------------------------------


def test_euler_step_constant_field():
    out = euler_step(ConstantField(), np.zeros(2), 0.0, 0.1)
    assert np.allclose(out, [0.1, 0.0], atol=1e-15)


def test_euler_step_zero_dt():
    x = np.array([0.3, -0.4])
    assert np.array_equal(euler_step(ConstantField(), x, 0.5, 0.0), x)


def test_euler_single_atom_lands_near_atom():
    c = np.array([2.0, -1.0])
    model = single_atom_model(*c)
    x = np.array([0.5, 0.5])
    n = 32
    for k in range(n):
        x = euler_step(model, x, k / n, 1.0 / n)
    assert np.linalg.norm(x - c) <= np.linalg.norm(c - np.array([0.5, 0.5])) / n


def test_heun_equals_euler_on_constant_field():
    x = np.array([1.0, 2.0])
    a = euler_step(ConstantField(), x, 0.2, 0.05)
    b = heun_step(ConstantField(), x, 0.2, 0.05)
    assert np.array_equal(a, b)


def test_heun_zero_dt():
    x = np.array([0.7])
    assert np.array_equal(heun_step(DecayField(), x, 0.1, 0.0), x)


def test_heun_local_error_is_third_order():
    # One step of the linear decay field: Heun reproduces the exponential
    # through the quadratic term, so the local error is x dt^3/6 + O(dt^4).
    x = np.array([1.0])
    for dt in (0.1, 0.05, 0.025):
        got = heun_step(DecayField(), x, 0.0, dt)[0]
        err = abs(got - math.exp(-dt))
        assert err <= dt**3
        third_order = dt**3 / 6.0
        assert 0.5 * third_order <= err <= 2.0 * third_order


def test_steppers_reject_bad_steps():
    with pytest.raises(ValueError):
        euler_step(ConstantField(), np.zeros(2), 0.95, 0.1)
    with pytest.raises(ValueError):
        heun_step(ConstantField(), np.zeros(2), 0.2, -0.1)


# --- vanilla ---------------------------------------------------------------------


def test_vanilla_single_atom_accuracy():
    model = single_atom_model(1.5, -0.5)
    cfg = SamplerConfig(algorithm="vanilla", n_steps=64, seed=3)
    rec = sample_vanilla(model, cfg)
    atom = np.array([1.5, -0.5])
    assert np.linalg.norm(rec.x1 - atom) <= np.linalg.norm(atom - rec.x0) / 64


def test_vanilla_is_deterministic():
    model = TWO_MODE
    cfg = SamplerConfig(algorithm="vanilla", n_steps=20, seed=11)
    a = sample_vanilla(model, cfg, sample_index=4)
    b = sample_vanilla(model, cfg, sample_index=4)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.x0, b.x0)


def test_record_shape_invariants():
    cfg = SamplerConfig(algorithm="ccfm", n_steps=25, seed=0)
    rec = sample_ccfm(TWO_MODE, SEPARATING, cfg)
    assert rec.states.shape == (26, 2)
    assert np.array_equal(rec.states[0], rec.x0)
    assert np.array_equal(rec.states[-1], rec.x1)
    assert rec.per_step_violation.shape == (25,)
    assert rec.projection_moves.shape == (25,)
    assert rec.wall_time >= 0.0


# --- repeated projection ------------------------------------------------------------


def test_repeated_without_constraints_equals_vanilla():
    cfg = SamplerConfig(algorithm="repeated", n_steps=30, seed=5)
    a = sample_repeated(TWO_MODE, ConstraintSet(()), cfg, sample_index=2)
    b = sample_vanilla(TWO_MODE, dataclasses.replace(cfg, algorithm="vanilla"), sample_index=2)
    assert np.array_equal(a.states, b.states)
    assert np.all(a.projection_moves == 0.0)


def test_repeated_inactive_halfspace_equals_vanilla():
    # Feasible region swallows the whole flow tube; projections are no-ops.
    wide = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 50.0),))
    cfg = SamplerConfig(algorithm="repeated", n_steps=30, seed=5)
    a = sample_repeated(TWO_MODE, wide, cfg, sample_index=1)
    b = sample_vanilla(TWO_MODE, dataclasses.replace(cfg, algorithm="vanilla"), sample_index=1)
    assert np.array_equal(a.states, b.states)


def test_repeated_separating_halfspace_feasible_and_distorting():
    cfg = SamplerConfig(algorithm="repeated", n_steps=50, seed=0, samples=16)
    records = run_batch(TWO_MODE, SEPARATING, cfg)
    for rec in records:
        assert max_violation(SEPARATING, rec.x1) <= SEPARATING.tol
        assert np.all(rec.per_step_violation <= SEPARATING.tol)
    early = np.array([rec.projection_moves[:10] for rec in records])
    assert early.sum() > 0.0  # the distortion signature: early dragging


# --- extrapolate-correct-interpolate ----------------------------------------------------


def test_eci_matches_vanilla_without_constraints_or_resampling():
    # Under the exact linear flow the extrapolate/interpolate pair is the
    # Euler update, so with no events the trajectories coincide.
    model = single_atom_model(2.0, 1.0)
    cfg = SamplerConfig(algorithm="eci", n_steps=50, seed=9, eci_events=0)
    a = sample_eci(model, ConstraintSet(()), cfg, sample_index=0)
    b = sample_vanilla(model, dataclasses.replace(cfg, algorithm="vanilla"), sample_index=0)
    assert np.abs(a.states - b.states).max() <= 1e-10


def test_eci_single_atom_feasible_atom():
    model = single_atom_model(-1.0, -1.0)
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),))  # atom inside
    cfg = SamplerConfig(algorithm="eci", n_steps=40, seed=2)
    rec = sample_eci(model, cs, cfg)
    atom = np.array([-1.0, -1.0])
    assert np.linalg.norm(rec.x1 - atom) <= np.linalg.norm(atom - rec.x0) / 40 + 1e-9
    assert np.all(rec.projection_moves == 0.0)


def test_eci_is_deterministic_with_resampling():
    cfg = SamplerConfig(algorithm="eci", n_steps=30, seed=13, eci_events=2)
    a = sample_eci(TWO_MODE, SEPARATING, cfg, sample_index=3)
    b = sample_eci(TWO_MODE, SEPARATING, cfg, sample_index=3)
    assert np.array_equal(a.states, b.states)


def test_eci_resampling_events_change_the_path():
    cfg0 = SamplerConfig(algorithm="eci", n_steps=30, seed=13, eci_events=0)
    cfg2 = dataclasses.replace(cfg0, eci_events=2)
    a = sample_eci(TWO_MODE, SEPARATING, cfg0, sample_index=3)
    b = sample_eci(TWO_MODE, SEPARATING, cfg2, sample_index=3)
    assert not np.array_equal(a.states, b.states)


# --- chance-constrained sampling ----------------------------------------------------------


def test_ccfm_inactive_everywhere_equals_vanilla():
    wide = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 10.0),))
    cfg = SamplerConfig(algorithm="ccfm", n_steps=50, seed=1, samples=8,
                        scheduler=Scheduler(2.0))
    constrained = run_batch(TWO_MODE, wide, cfg)
    free = run_batch(TWO_MODE, None,
                     dataclasses.replace(cfg, algorithm="vanilla"))
    for a, b in zip(constrained, free):
        assert np.abs(a.states - b.states).max() <= 1e-12
        assert np.all(a.projection_moves == 0.0)


def test_ccfm_terminal_feasibility_on_separating_halfspace():
    cfg = SamplerConfig(algorithm="ccfm", n_steps=100, seed=0, samples=16,
                        scheduler=Scheduler(0.5))
    records = run_batch(TWO_MODE, SEPARATING, cfg)
    for rec in records:
        assert rec.refine_converged
        assert max_violation(SEPARATING, rec.x1) <= SEPARATING.tol
        assert rec.final_violation <= SEPARATING.tol


def test_ccfm_pathwise_mode_terminal_feasibility():
    cfg = SamplerConfig(algorithm="ccfm", n_steps=60, seed=4, samples=8,
                        mode="pathwise")
    records = run_batch(TWO_MODE, SEPARATING, cfg)
    for rec in records:
        assert max_violation(SEPARATING, rec.x1) <= SEPARATING.tol


def test_ccfm_early_steps_are_projection_free():
    # A steep scheduler keeps phi(t) tiny early, so the first N/10 steps run
    # unconstrained on geometry with positive feasible margin (the shipped
    # early-freedom benchmark: halfspace x <= -0.5, n = 4).
    cfg = SamplerConfig(algorithm="ccfm", n_steps=100, seed=7, samples=12,
                        scheduler=Scheduler(4.0))
    margin = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), -0.5),))
    records = run_batch(TWO_MODE, margin, cfg)
    head = math.ceil(cfg.n_steps / 10)
    for rec in records:
        assert np.all(rec.projection_moves[:head] == 0.0)


def test_ccfm_marginal_rejects_unsupported_kind_upfront():
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    cfg = SamplerConfig(algorithm="ccfm", n_steps=10, seed=0, mode="marginal")
    with pytest.raises(ValueError):
        sample_ccfm(TWO_MODE, cs, cfg)


@pytest.mark.parametrize("algorithm", ["repeated", "eci"])
def test_gauss_newton_budgets_are_one_update_per_step_and_30_at_the_end(
        monkeypatch, algorithm):
    # A keep-out ball has no closed-form projection, so project sends every
    # per-step correction to Gauss-Newton: one update at 1e-10. Each record
    # then gets exactly one strict refinement, 30 iterations at cs.tol/16.
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    calls = []
    real = projection.gauss_newton_project

    def spy(x, cs, max_iters=30, tol=1e-10):
        calls.append((max_iters, tol))
        return real(x, cs, max_iters, tol)

    monkeypatch.setattr(projection, "gauss_newton_project", spy)
    cfg = SamplerConfig(algorithm=algorithm, n_steps=8, seed=4, samples=3)
    records = run_batch(TWO_MODE, cs, cfg)
    per_record = [(1, 1e-10)] * cfg.n_steps + [(30, cs.tol / 16.0)]
    assert calls == per_record * len(records)


def test_all_four_agree_without_constraints():
    model = single_atom_model(0.8, -1.2)
    empty = ConstraintSet(())
    cfg = SamplerConfig(n_steps=40, seed=21, eci_events=0)
    recs = [
        sample_vanilla(model, cfg, sample_index=5),
        sample_repeated(model, empty, cfg, sample_index=5),
        sample_eci(model, empty, cfg, sample_index=5),
        sample_ccfm(model, empty, cfg, sample_index=5),
        sample_ccfm(model, empty, dataclasses.replace(cfg, mode="pathwise"), sample_index=5),
    ]
    base = recs[0].states
    for rec in recs[1:]:
        assert np.abs(rec.states - base).max() <= 1e-12


# --- convergence orders ---------------------------------------------------------------


def exact_single_gaussian_flow(x0, mu, s, t):
    beta = math.sqrt(t * t * s * s + (1.0 - t) ** 2)
    return t * mu + beta * x0


def terminal_error(stepper, n_steps, seed=17):
    mu = np.array([1.0, -0.5])
    s = 0.6
    model = FlowModel(GaussianMixtureTarget(mu[None, :], np.array([s])))
    cfg = SamplerConfig(algorithm="vanilla", stepper=stepper, n_steps=n_steps,
                        seed=seed)
    errs = []
    for i in range(4):
        rec = sample_vanilla(model, cfg, sample_index=i)
        exact = exact_single_gaussian_flow(rec.x0, mu, s, 1.0)
        errs.append(np.linalg.norm(rec.x1 - exact))
    return float(np.mean(errs))


def test_euler_error_halves_with_doubled_steps():
    e1 = terminal_error("euler", 20)
    e2 = terminal_error("euler", 40)
    e3 = terminal_error("euler", 80)
    for coarse, fine in ((e1, e2), (e2, e3)):
        assert 1.0 <= coarse / fine <= 4.0  # factor-2 band around ratio 2


def test_heun_error_quarters_with_doubled_steps():
    e1 = terminal_error("heun", 20)
    e2 = terminal_error("heun", 40)
    e3 = terminal_error("heun", 80)
    for coarse, fine in ((e1, e2), (e2, e3)):
        assert 2.0 <= coarse / fine <= 8.0  # factor-2 band around ratio 4
    assert e3 < terminal_error("euler", 80)


# --- batch running -------------------------------------------------------------------


def test_run_batch_is_thread_count_invariant():
    cfg = SamplerConfig(algorithm="ccfm", n_steps=30, seed=6, samples=9)
    serial = run_batch(TWO_MODE, SEPARATING, cfg, threads=1)
    parallel = run_batch(TWO_MODE, SEPARATING, cfg, threads=4)
    assert len(serial) == len(parallel) == 9
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.projection_moves, b.projection_moves)


@pytest.mark.parametrize("algorithm, stepper", [
    ("ccfm", "euler"), ("repeated", "heun"), ("eci", "euler")])
def test_threads_filling_one_velocity_cache_match_one_thread_bytes(algorithm, stepper):
    # Each side starts from a fresh model, so the threads fill its per-time
    # velocity cache concurrently; a short switch interval interleaves them.
    def fresh_model():
        return FlowModel(GaussianMixtureTarget(TWO_MODE.target.means, TWO_MODE.target.scales))

    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),
                        LinearBand(np.array([0.0, 1.0]), -1.0, 1.0)))
    cfg = SamplerConfig(algorithm=algorithm, stepper=stepper, n_steps=30, seed=8, samples=8)
    serial = run_batch(fresh_model(), cs, cfg, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_batch(fresh_model(), cs, cfg, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(parallel) == 8
    for a, b in zip(serial, parallel):
        for field in ("states", "x1", "per_step_violation", "projection_moves"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.mark.parametrize("samples, threads", [(1, 1), (5, 1), (5, 3)])
def test_marginal_ccfm_batch_tightens_once_per_grid_time(monkeypatch, samples, threads):
    # The marginal tightened sets depend on t alone: a batch builds them once
    # per grid time, whatever its size or thread count, and every record
    # equals a direct sample_ccfm call that builds its own.
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),
                        LinearBand(np.array([0.0, 1.0]), -1.0, 1.5)))
    cfg = SamplerConfig(algorithm="ccfm", n_steps=20, seed=8, samples=samples)
    direct = [sample_ccfm(TWO_MODE, cs, cfg, i) for i in range(samples)]
    calls = []
    real = samplers.tighten_set

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(samplers, "tighten_set", counting)
    records = run_batch(TWO_MODE, cs, cfg, threads=threads)
    assert len(calls) == cfg.n_steps
    assert calls == [k / cfg.n_steps for k in range(1, cfg.n_steps + 1)]
    for a, b in zip(records, direct):
        for field in ("x0", "states", "x1", "per_step_violation", "projection_moves"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.refine_converged, a.final_violation) == (b.refine_converged, b.final_violation)


@pytest.mark.parametrize("algorithm, mode", [
    ("vanilla", "marginal"), ("repeated", "marginal"), ("eci", "marginal"),
    ("ccfm", "marginal"), ("ccfm", "pathwise"),
])
def test_per_step_violations_come_from_one_call_per_record(monkeypatch, algorithm, mode):
    # A small reaction-diffusion set: the IC band and the mass law. Marginal
    # ccfm has no reformulation of the mass law, so it runs on the band alone.
    grid = RdGrid(n_s=8, n_t=4, dt_phys=0.2)
    fields, problems = rd_dataset(grid, 5, seed=3)
    model = FlowModel(EmpiricalTarget(fields[1:]))
    cs = rd_constraints(problems[0])
    if (algorithm, mode) == ("ccfm", "marginal"):
        cs = ConstraintSet(cs.members[:1], tol=cs.tol)
    seen, refined = [], []
    real_violation, real_refine = samplers.max_violation, samplers.final_refine

    def spy_violation(cs, x):
        seen.append(np.array(x))
        return real_violation(cs, x)

    def spy_refine(x, cs):
        refined.append(np.array(x))
        return real_refine(x, cs)

    monkeypatch.setattr(samplers, "max_violation", spy_violation)
    monkeypatch.setattr(samplers, "final_refine", spy_refine)
    cfg = SamplerConfig(algorithm=algorithm, mode=mode, n_steps=12, seed=5, samples=3)
    records = run_batch(model, None if algorithm == "vanilla" else cs, cfg)
    if algorithm == "vanilla":
        assert seen == [] and refined == []
        for rec in records:
            assert rec.per_step_violation.tobytes() == np.zeros(12).tobytes()
        return
    assert len(seen) == len(refined) == len(records)
    for rec, stacked, last in zip(records, seen, refined):
        # The states after each step's correction, the last one before refinement.
        before = np.concatenate([rec.states[1:-1], last[None]])
        assert np.array_equal(stacked, before)
        want = np.array([max_violation(cs, x) for x in before], dtype=float)
        assert rec.per_step_violation.tobytes() == want.tobytes()


def test_run_batch_requires_constraints_for_constrained_algorithms():
    cfg = SamplerConfig(algorithm="repeated", n_steps=5, seed=0)
    with pytest.raises(ValueError):
        run_batch(TWO_MODE, None, cfg)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(algorithm="magic")
    with pytest.raises(ValueError):
        SamplerConfig(stepper="rk4")
    with pytest.raises(ValueError):
        SamplerConfig(n_steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(eci_events=-1)


def test_every_marginal_set_of_the_mix8_constraints_is_orthogonal():
    # The constraints of perfbench/configs/mix8_threads.cfg: x0 <= 1,
    # -1 <= x1 <= 3 and (x2 + x3)^2 <= 4, which a config reads as the band
    # |x2 + x3| <= 2. Every tightened set keeps a subset of these rows, so
    # each of the 100 per-step projections takes the one exact pass.
    e = np.eye(8)
    cs = ConstraintSet((LinearIneq(e[0], 1.0), LinearBand(e[1], -1.0, 3.0),
                        LinearBand(e[2] + e[3], -2.0, 2.0)), tol=1e-8)
    cfg = SamplerConfig(algorithm="ccfm", n_steps=100, scheduler=Scheduler(0.5))
    schedule = samplers._marginal_schedule(cs, cfg)
    assert cs.orthogonal
    assert len(schedule) == 100
    assert all(tightened.orthogonal for tightened in schedule)
    assert max(len(tightened.members) for tightened in schedule) == 3
