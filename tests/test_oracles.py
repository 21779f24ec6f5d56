"""The verification oracles get checked against closed forms and each other."""

import math

import numpy as np
import pytest

from chanceflow import (BruteForceConfig, ConstraintSet, EmpiricalTarget,
                        GaussianMixtureTarget, LinearBand, LinearIneq,
                        MinDistance, OracleFailure, SampleRecord,
                        brute_force_project, feasibility_report, max_violation,
                        mc_chance, rejection_sample, sample_target, sliced_w2)
from chanceflow.numerics import stream_rng
from chanceflow.oracles import _quantiles, halfspace_qp_project


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# --- mc_chance --------------------------------------------------------------


def test_mc_chance_is_deterministic_at_t1():
    # At t = 1 there is no unresolved noise, so the estimate is an indicator.
    member = LinearIneq(np.array([1.0, 0.0]), 0.5)
    rng = stream_rng(17, 100)
    ok = mc_chance(member, np.array([0.2, 3.0]), 1.0, 10_000, rng)
    assert ok.p_hat == 1.0
    assert ok.stderr == 0.0
    bad = mc_chance(member, np.array([0.9, 3.0]), 1.0, 10_000, rng)
    assert bad.p_hat == 0.0


def test_mc_chance_argument_validation():
    member = LinearIneq(np.array([1.0]), 0.0)
    rng = stream_rng(17, 101)
    with pytest.raises(ValueError):
        mc_chance(member, np.zeros(1), 0.0, 10_000, rng)
    with pytest.raises(ValueError):
        mc_chance(member, np.zeros(1), 1.5, 10_000, rng)
    with pytest.raises(ValueError):
        mc_chance(member, np.zeros(1), 0.5, 9_999, rng)


def test_mc_chance_matches_gaussian_tail_analytically():
    # For a halfspace the satisfaction probability has the closed form
    # Phi((b - a.x_t/t) / (sigma ||a||)); 50 seeded instances, 3 stderr.
    n_trials = 40_000
    for i in range(50):
        rng = stream_rng(17, i)
        d = int(rng.integers(1, 5))
        a = rng.standard_normal(d)
        x_t = rng.standard_normal(d)
        t = float(rng.uniform(0.15, 0.95))
        sigma = (1.0 - t) / t
        z = float(rng.uniform(-1.3, 1.3))
        b = float(a @ x_t) / t + sigma * float(np.linalg.norm(a)) * z
        member = LinearIneq(a, b)
        est = mc_chance(member, x_t, t, n_trials, stream_rng(23, i))
        assert abs(est.p_hat - normal_cdf(z)) <= 3.0 * est.stderr


# --- brute_force_project --------------------------------------------------------


def test_lattice_projection_matches_halfspace_closed_form():
    member = LinearIneq(np.array([1.0, 0.0]), -0.5)
    cs = ConstraintSet((member,))
    x = np.array([0.7, 0.3])
    got = brute_force_project(x, cs)
    assert np.linalg.norm(got - member.project(x)) <= 2e-3


def test_lattice_projection_finds_the_ring():
    cs = ConstraintSet((MinDistance(np.zeros(2), 1.0),))
    x = np.array([0.3, 0.4])
    got = brute_force_project(x, cs)
    want = x / np.linalg.norm(x)  # radial push to the keep-out boundary
    assert np.linalg.norm(got - want) <= 2.0 * 1e-3
    assert max_violation(cs, got) <= cs.tol


def test_feasible_input_is_returned_unchanged():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.5),))
    x = np.array([-1.0, 0.25])
    got = brute_force_project(x, cs)
    assert np.array_equal(got, x)
    assert got is not x


def test_empty_search_box_raises():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), -10.0),))
    cfg = BruteForceConfig(h=0.05)
    with pytest.raises(OracleFailure):
        brute_force_project(np.zeros(2), cs, cfg)


def test_grid_mode_rejects_high_dimensions():
    cs = ConstraintSet((LinearIneq(np.ones(5), -1.0),))
    with pytest.raises(ValueError):
        brute_force_project(np.zeros(5), cs, BruteForceConfig(h=0.5))


def test_brute_force_config_validation():
    with pytest.raises(ValueError):
        BruteForceConfig(mode="annealing")
    with pytest.raises(ValueError):
        BruteForceConfig(h=0.0)
    cs = ConstraintSet((LinearIneq(np.array([1.0]), -1.0),))
    with pytest.raises(ValueError):
        brute_force_project(np.zeros(1), cs, BruteForceConfig(lo=2.0, hi=-2.0))


def test_restart_mode_matches_closed_forms():
    cfg = BruteForceConfig(mode="restarts")
    member = LinearIneq(np.array([1.0, 0.0]), 0.0)
    x = np.array([0.7, 0.3])
    got = brute_force_project(x, ConstraintSet((member,)), cfg)
    assert np.linalg.norm(got - member.project(x)) <= 1e-6

    band = LinearBand(np.array([0.0, 1.0]), -0.1, 0.1)
    got = brute_force_project(np.array([0.4, 2.0]), ConstraintSet((band,)), cfg)
    assert np.linalg.norm(got - np.array([0.4, 0.1])) <= 1e-6


# --- sliced_w2 ---------------------------------------------------------------------


def test_sliced_w2_identical_batches():
    pts = stream_rng(19, 0).standard_normal((40, 3))
    assert sliced_w2(pts, pts) == 0.0


def test_sliced_w2_point_masses_1d():
    a = np.zeros((4, 1))
    b = np.full((4, 1), -0.7)
    assert sliced_w2(a, b) == pytest.approx(0.7, rel=1e-12)
    # unequal batch sizes take the quantile path and stay exact here
    assert sliced_w2(np.zeros((3, 1)), np.full((5, 1), 2.0)) == pytest.approx(2.0, rel=1e-12)


def test_sliced_w2_is_symmetric_and_nonnegative():
    rng = stream_rng(19, 1)
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal((25, 4)) + 0.3
    assert sliced_w2(a, b) == sliced_w2(b, a)
    assert sliced_w2(a, b) > 0.0


def test_sliced_w2_recovers_gaussian_transport_cost():
    # Isotropic Gaussians have W2^2 = ||mu_a - mu_b||^2 + d (s_a - s_b)^2;
    # the sqrt(d) scaling makes the sliced estimate consistent with it.
    rng = stream_rng(19, 2)
    d = 3
    mu = np.array([1.0, 0.5, -0.25])
    a = rng.standard_normal((10_000, d))
    b = mu + 0.6 * rng.standard_normal((10_000, d))
    want = math.sqrt(float(mu @ mu) + d * (1.0 - 0.6) ** 2)
    got = sliced_w2(a, b, rng=stream_rng(19, 3))
    assert abs(got - want) <= 0.1 * want


def test_sliced_w2_input_validation():
    with pytest.raises(ValueError):
        sliced_w2(np.zeros((1, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        sliced_w2(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        sliced_w2(np.zeros(5), np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_sliced_w2_rejects_non_finite_batches(bad, which):
    batches = [stream_rng(19, 4).standard_normal((6, 3)), stream_rng(19, 5).standard_normal((9, 3))]
    batches[which][2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        sliced_w2(*batches)


def _levels(m):
    return (np.arange(m) + 0.5) / m


def test_sorted_quantiles_are_bitwise_np_quantile():
    rng = stream_rng(19, 6)
    for trial in range(150):
        n = 2 if trial % 10 == 0 else int(rng.integers(2, 701))
        p = rng.uniform(0.1, 10.0) * rng.standard_normal((n, int(rng.integers(1, 131))))
        if trial % 3 == 1:  # many ties; adding +0.0 turns any -0.0 into +0.0
            p = np.round(p, 1) + 0.0
        if trial % 4 == 2:
            p[:, 0] = 3.0
        levels = _levels(max(n, int(rng.integers(2, 701))))
        if trial % 5 == 3:  # arbitrary levels in [0, 1)
            levels = np.sort(np.concatenate((rng.uniform(0.0, 1.0, 40), [0.0, 1.0 - 2.0**-53])))
        want = np.quantile(p, levels, axis=0)
        assert _quantiles(p, levels).tobytes() == want.tobytes(), (trial, n)


def _np_quantile_sliced_w2(a, b, n_projections, rng):
    """sliced_w2 as written with np.quantile, the reference it must match."""
    dirs = rng.standard_normal((n_projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    levels = _levels(max(len(a), len(b)))
    qa = np.quantile(a @ dirs.T, levels, axis=0)
    qb = np.quantile(b @ dirs.T, levels, axis=0)
    return float(np.sqrt(a.shape[1] * np.mean(np.mean((qa - qb) ** 2, axis=0))))


def test_signed_zeros_flip_only_the_sign_of_a_zero_quantile():
    # Sort and partition may order tied -0.0 and +0.0 differently.
    rng = stream_rng(19, 8)
    flipped = 0
    for _ in range(60):
        n = int(rng.integers(2, 300))
        p = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, 5))
        levels = _levels(max(n, int(rng.integers(2, 300))))
        got, want = _quantiles(p, levels), np.quantile(p, levels, axis=0)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert np.array_equal(got, want) and (got[differ] == 0.0).all()
        flipped += differ.any()
    assert flipped  # the case is real, not hypothetical


def test_sliced_w2_equals_the_np_quantile_reference_with_signed_zeros():
    rng = stream_rng(19, 7)
    for trial in range(40):
        n_a, n_b = (int(v) for v in rng.integers(2, 90, 2))
        if n_a == n_b:
            n_b += 1
        a = rng.choice([-0.0, 0.0, 1.5, -2.0], size=(n_a, 1 + trial % 3))
        shape = (n_b, a.shape[1])
        b = np.where(rng.random(shape) < 0.5, -0.0, rng.standard_normal(shape))
        b[: n_b // 3] = 0.0
        got = sliced_w2(a, b, n_projections=16, rng=stream_rng(19, 100 + trial))
        want = _np_quantile_sliced_w2(a, b, 16, stream_rng(19, 100 + trial))
        assert math.copysign(1.0, got) == 1.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial


# --- feasibility_report ---------------------------------------------------------------


def fake_record(x1, moves):
    x1 = np.asarray(x1, dtype=float)
    return SampleRecord(states=np.stack([np.zeros_like(x1), x1]), per_step_violation=np.zeros(1),
                        projection_moves=np.asarray(moves, dtype=float), wall_time=0.0)


def test_feasibility_report_on_a_clean_batch():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 1.0),))
    records = [fake_record([0.2, 0.1], [0.0, 0.5]), fake_record([-0.4, 0.3], [0.25, 0.0])]
    finals = np.stack([r.x1 for r in records])
    report = feasibility_report(records, cs, finals)
    assert report.feasibility_rate == 1.0
    assert report.sliced_w2 == 0.0
    assert report.mean_projection_move == pytest.approx(0.375)


def test_feasibility_report_counts_violators():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),))
    records = [fake_record([-0.5, 0.0], [0.0]), fake_record([0.5, 0.0], [0.0])]
    report = feasibility_report(records, cs, np.stack([r.x1 for r in records]))
    assert report.feasibility_rate == 0.5


def test_feasibility_report_has_no_sliced_w2_below_two_rows():
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),))
    one = [fake_record([-0.5, 0.0], [0.0])]
    two = one + [fake_record([0.5, 0.0], [0.0])]
    report = feasibility_report(one, cs, np.zeros((5, 2)))
    assert report.sliced_w2 is None and report.feasibility_rate == 1.0
    assert feasibility_report(two, cs, np.zeros((1, 2))).sliced_w2 is None
    assert feasibility_report(two, cs, np.zeros((2, 2))).sliced_w2 > 0.0


def test_feasibility_report_rejects_empty_batch():
    cs = ConstraintSet((LinearIneq(np.array([1.0]), 0.0),))
    with pytest.raises(ValueError):
        feasibility_report([], cs, np.zeros((2, 1)))


# --- halfspace_qp_project ----------------------------------------------------------


def test_qp_oracle_single_halfspace():
    member = LinearIneq(np.array([0.6, 0.8]), 0.2)
    x = np.array([1.5, -0.3])
    assert np.linalg.norm(halfspace_qp_project(x, [member]) - member.project(x)) <= 1e-12


def test_qp_oracle_corner():
    members = [LinearIneq(np.array([1.0, 0.0]), 0.0), LinearIneq(np.array([0.0, 1.0]), 0.0)]
    got = halfspace_qp_project(np.array([1.0, 1.0]), members)
    assert np.allclose(got, [0.0, 0.0], atol=1e-12)


def test_qp_oracle_rejects_other_kinds():
    with pytest.raises(TypeError):
        halfspace_qp_project(np.zeros(2), [LinearBand(np.array([1.0, 0.0]), -1.0, 1.0)])


# --- target sampling helpers -------------------------------------------------------


def test_sample_target_empirical_returns_atoms():
    atoms = np.array([[0.0, 1.0], [2.0, -1.0], [4.0, 0.5]])
    draws = sample_target(EmpiricalTarget(atoms), 64, stream_rng(19, 4))
    assert draws.shape == (64, 2)
    for row in draws:
        assert any(np.array_equal(row, atom) for atom in atoms)


def test_sample_target_mixture_moments():
    target = GaussianMixtureTarget(means=[[-2.0], [2.0]], scales=[0.1, 0.1])
    draws = sample_target(target, 20_000, stream_rng(19, 5))
    assert abs(float(draws.mean())) <= 0.05
    assert abs(float(np.abs(draws).mean()) - 2.0) <= 0.05


def test_sample_target_rejects_unknown_types():
    with pytest.raises(TypeError):
        sample_target(object(), 4, stream_rng(19, 6))


def test_rejection_sample_conditions_on_feasibility():
    target = GaussianMixtureTarget(means=[[-2.0, 0.0], [2.0, 0.0]], scales=[0.4, 0.4])
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), 0.0),))
    draws = rejection_sample(target, cs, 100, stream_rng(19, 7))
    assert draws.shape == (100, 2)
    assert np.all(draws[:, 0] <= 0.0)


def test_rejection_sample_gives_up_on_hopeless_sets():
    target = GaussianMixtureTarget(means=[[0.0]], scales=[0.1])
    cs = ConstraintSet((LinearIneq(np.array([1.0]), -50.0),))
    with pytest.raises(OracleFailure):
        rejection_sample(target, cs, 10, stream_rng(19, 8), max_tries=5)
