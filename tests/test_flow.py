"""Path algebra and the exact marginal velocity field."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from chanceflow import (EmpiricalTarget, FlowModel, GaussianMixtureTarget,
                        interpolate, load_matrix, recover_x1)
from chanceflow.flow import T_CLAMP, _logsumexp
from chanceflow.numerics import stream_rng


def brute_posterior_velocity(atoms, weights, x, t):
    """Per-atom softmax posterior written out longhand (the reference path)."""
    logs = []
    for a, w in zip(atoms, weights):
        sq = sum((xi - t * ai) ** 2 for xi, ai in zip(x, a))
        logs.append(math.log(w) - sq / (2.0 * (1.0 - t) ** 2))
    top = max(logs)
    ws = [math.exp(l - top) for l in logs]
    total = sum(ws)
    ws = [w / total for w in ws]
    xhat = [sum(w * a[j] for w, a in zip(ws, atoms)) for j in range(len(x))]
    return np.array([(xh - xi) / (1.0 - t) for xh, xi in zip(xhat, x)])


# --- interpolation and inversion --------------------------------------------


def test_interpolate_midpoint():
    out = interpolate(np.zeros(2), np.array([2.0, 4.0]), 0.5)
    assert np.array_equal(out, [1.0, 2.0])


def test_interpolate_boundaries():
    x0 = np.array([0.3, -1.2])
    x1 = np.array([5.0, 2.0])
    assert np.array_equal(interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(interpolate(x0, x1, 1.0), x1)


def test_interpolate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        interpolate(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        interpolate(np.zeros(2), np.zeros(2), 1.5)


def test_recover_x1_inverts_midpoint():
    out = recover_x1(np.array([1.0, 2.0]), np.zeros(2), 0.5)
    assert np.allclose(out, [2.0, 4.0], atol=1e-14)


def test_recover_x1_at_t1_returns_state():
    x_t = np.array([0.7, -0.2])
    assert np.array_equal(recover_x1(x_t, np.array([9.0, 9.0]), 1.0), x_t)


def test_recover_x1_roundtrip_random():
    rng = stream_rng(5, 0)
    x0 = rng.standard_normal(4)
    x1 = rng.standard_normal(4)
    back = recover_x1(interpolate(x0, x1, 0.3), x0, 0.3)
    assert np.allclose(back, x1, atol=1e-12)


def test_recover_x1_rejects_t0():
    with pytest.raises(ValueError):
        recover_x1(np.zeros(2), np.zeros(2), 0.0)


def test_path_inversion_across_time_grid():
    rng = stream_rng(5, 1)
    for _ in range(50):
        x0 = rng.standard_normal(3)
        x1 = rng.standard_normal(3)
        for t in np.linspace(0.01, 1.0, 25):
            err = np.abs(recover_x1(interpolate(x0, x1, t), x0, t) - x1).max()
            assert err <= 1e-12


def test_affine_map_scalar_example():
    # The path-inverting map M_t(x) = (x - (1 - t) x0) / t = (3 - 1) / 0.5.
    assert recover_x1(np.array([3.0]), np.array([2.0]), 0.5)[0] == pytest.approx(4.0)


def test_affine_map_fixes_x0():
    x0 = np.array([1.5, -0.5])
    assert np.allclose(recover_x1(x0, x0, 0.5), x0, atol=1e-14)


def test_affine_map_inverts_interpolation():
    rng = stream_rng(5, 2)
    x0, x1 = rng.standard_normal(6), rng.standard_normal(6)
    for t in (0.1, 0.5, 0.9):
        assert np.allclose(recover_x1(interpolate(x0, x1, t), x0, t), x1, atol=1e-12)


# --- exact velocity ----------------------------------------------------------


def test_velocity_single_atom_closed_form():
    model = FlowModel(EmpiricalTarget(np.array([[2.0]])))
    assert model.velocity(np.array([0.0]), 0.5) == pytest.approx(np.array([4.0]))


def test_velocity_symmetric_atoms_vanishes_at_origin():
    model = FlowModel(EmpiricalTarget(np.array([[-1.0], [1.0]])))
    for t in (0.0, 0.3, 0.7, 0.95):
        assert model.velocity(np.array([0.0]), t) == pytest.approx(np.array([0.0]), abs=1e-14)


def test_velocity_three_atoms_matches_brute_force():
    atoms = np.array([[-1.0], [0.5], [2.0]])
    weights = np.array([0.2, 0.5, 0.3])
    model = FlowModel(EmpiricalTarget(atoms, weights))
    x = np.array([0.3])
    got = model.velocity(x, 0.7)
    want = brute_posterior_velocity(atoms, weights, x, 0.7)
    assert np.allclose(got, want, atol=1e-12)


def test_velocity_multivariate_matches_brute_force():
    rng = stream_rng(11, 0)
    atoms = rng.standard_normal((4, 3))
    weights = np.array([0.1, 0.4, 0.25, 0.25])
    model = FlowModel(EmpiricalTarget(atoms, weights))
    for t in (0.15, 0.5, 0.85):
        x = rng.standard_normal(3)
        assert np.allclose(model.velocity(x, t),
                           brute_posterior_velocity(atoms, weights, x, t), atol=1e-12)


def test_posterior_weights_form_a_simplex():
    rng = stream_rng(11, 1)
    model = FlowModel(EmpiricalTarget(rng.standard_normal((6, 2))))
    for t in (0.0, 0.4, 0.99, 1.0 - 1e-7):
        _, w = model.posterior_mean(rng.standard_normal(2), t)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_posterior_mean_collapses_to_nearest_atom_near_t1():
    atoms = np.array([[-2.0, 0.0], [1.0, 1.0], [3.0, -1.0]])
    model = FlowModel(EmpiricalTarget(atoms))
    t = 1.0 - 1e-6
    x = t * np.array([0.9, 1.2])  # x/t is closest to atom (1, 1)
    xhat, w = model.posterior_mean(x, t)
    assert np.allclose(xhat, atoms[1], atol=1e-6)
    assert w[1] > 1.0 - 1e-9


def test_velocity_clamps_at_t1():
    model = FlowModel(EmpiricalTarget(np.array([[1.0], [3.0]])))
    x = np.array([0.4])
    assert np.array_equal(model.velocity(x, 1.0), model.velocity(x, T_CLAMP))


@pytest.mark.parametrize("t", [-0.1, 1.0 + 1e-6])
def test_velocity_rejects_time_outside_unit_interval(t):
    model = FlowModel(EmpiricalTarget(np.array([[1.0]])))
    with pytest.raises(ValueError):
        model.velocity(np.array([0.0]), t)


def test_euler_on_single_atom_follows_the_straight_line():
    # With one atom the marginal velocity is constant along the path, so the
    # Euler trajectory is the exact linear interpolation and lands on the atom
    # well inside the O(1/N) * |c - x0| envelope.
    c = np.array([2.0, -1.0])
    model = FlowModel(EmpiricalTarget(c[None, :]))
    x0 = np.array([-0.5, 0.5])
    n = 16
    x = x0.copy()
    for k in range(n):
        t = k / n
        x = x + (1.0 / n) * model.velocity(x, t)
        want = interpolate(x0, c, (k + 1) / n)
        assert np.allclose(x, want, atol=1e-12)
    assert np.linalg.norm(x - c) <= np.linalg.norm(c - x0) / n


def test_gaussian_component_posterior_matches_conjugate_formula():
    mu = np.array([1.0, -2.0])
    s = 0.7
    model = FlowModel(GaussianMixtureTarget(mu[None, :], np.array([s])))
    rng = stream_rng(11, 2)
    for t in (0.2, 0.5, 0.9):
        x = rng.standard_normal(2)
        var = t * t * s * s + (1.0 - t) ** 2
        want = mu + t * s * s * (x - t * mu) / var
        xhat, w = model.posterior_mean(x, t)
        assert np.allclose(xhat, want, atol=1e-12)
        assert w[0] == pytest.approx(1.0)


def test_target_validation():
    with pytest.raises(ValueError):
        EmpiricalTarget(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        EmpiricalTarget(np.array([[1.0], [2.0]]), weights=np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        GaussianMixtureTarget(np.array([[0.0]]), np.array([0.0]))


def test_weights_are_normalized():
    target = EmpiricalTarget(np.array([[0.0], [1.0]]), weights=np.array([2.0, 6.0]))
    assert np.allclose(target.weights, [0.25, 0.75], atol=1e-15)


def test_zero_weight_component_is_silent_and_drops_out():
    means = np.array([[-2.0, 0.0], [2.0, 0.0]])
    model = FlowModel(GaussianMixtureTarget(means, 0.4, weights=[1.0, 0.0]))
    alone = FlowModel(GaussianMixtureTarget(means[:1], 0.4))
    rng = stream_rng(11, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in np.linspace(0.0, 1.0, 100):
            x = 2.0 * rng.standard_normal(2)
            assert np.array_equal(model.velocity(x, t), alone.velocity(x, t))
            assert model.posterior_mean(x, t)[1][1] == 0.0


# --- bitwise agreement with SciPy's log-sum-exp ------------------------------


def _same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).view(np.uint64) == np.asarray(want, dtype=float).view(np.uint64)


@pytest.mark.parametrize("m", [1, 2, 8, 40])
def test_logsumexp_equals_scipy_bitwise(m):
    rng = stream_rng(12, m)
    for k in range(1500):
        scale = (1e-3, 1.0, 30.0, 300.0)[k % 4]
        a = scale * rng.uniform(-1.0, 1.0, m)
        if m > 1 and k % 3 == 1:  # ties at the maximum
            a[rng.choice(m, size=rng.integers(2, m + 1), replace=False)] = a.max()
        if m > 1 and k % 5 == 2:  # -inf entries, at least one finite entry left
            a[rng.choice(m, size=rng.integers(1, m), replace=False)] = -np.inf
        assert _same_bits(_logsumexp(a), logsumexp(a)), a


def _reference_posterior(model, x, t):
    """The velocity's formulas with SciPy's logsumexp and per-call constants."""
    tgt = model.target
    x = np.asarray(x, dtype=float)
    t = min(float(t), T_CLAMP)
    if isinstance(tgt, EmpiricalTarget):
        diff = x[None, :] - t * tgt.atoms
        logw = np.log(tgt.weights) - np.einsum("ij,ij->i", diff, diff) / (2.0 * (1.0 - t) ** 2)
        w = np.exp(logw - logsumexp(logw))
        xhat = w @ tgt.atoms
    else:
        var = t * t * tgt.scales**2 + (1.0 - t) ** 2
        diff = x[None, :] - t * tgt.means
        sq = np.einsum("ij,ij->i", diff, diff)
        logw = np.log(tgt.weights) - 0.5 * model.dim * np.log(var) - sq / (2.0 * var)
        w = np.exp(logw - logsumexp(logw))
        cond_means = tgt.means + (t * tgt.scales**2 / var)[:, None] * diff
        xhat = w @ cond_means
    return xhat, w, (xhat - x) / (1.0 - t)


def _axis_modes(d, k):
    """Modes at +2 and -2 on each of the first k axes of R^d."""
    means = np.zeros((2 * k, d))
    means[np.arange(2 * k), np.arange(2 * k) // 2] = np.tile([2.0, -2.0], k)
    return means


@pytest.mark.parametrize("model", [
    FlowModel(GaussianMixtureTarget(np.array([[-2.0, 0.0], [2.0, 0.0]]), 0.4)),  # benchmark_2d
    FlowModel(GaussianMixtureTarget(_axis_modes(8, 4), 0.5)),  # mix8_threads
    FlowModel(EmpiricalTarget(stream_rng(13, 0).standard_normal((12, 640)),
                              stream_rng(13, 1).uniform(0.1, 1.0, 12))),
], ids=["mixture_2d", "mixture_8d", "empirical_640"])
def test_velocity_is_bitwise_the_scipy_formula(model):
    rng = stream_rng(13, model.dim)
    states = 2.0 * rng.standard_normal((6, model.dim))
    for t in [k / 100 for k in range(101)]:
        for x in states:
            xhat, w, u = _reference_posterior(model, x, t)
            got_xhat, got_w = model.posterior_mean(x, t)
            assert np.array_equal(got_xhat, xhat)
            assert np.array_equal(got_w, w)
            assert np.array_equal(model.velocity(x, t), u)


# --- dataset loading ---------------------------------------------------------


def test_load_matrix_roundtrip(tmp_path):
    path = tmp_path / "atoms.txt"
    data = np.array([[1.0, 2.5], [-0.5, 3.0], [0.0, 0.0]])
    np.savetxt(path, data)
    assert np.allclose(load_matrix(path), data, atol=1e-15)


def test_load_matrix_single_row_keeps_two_dims(tmp_path):
    path = tmp_path / "row.txt"
    path.write_text("1.0 2.0 3.0\n")
    assert load_matrix(path).shape == (1, 3)


def test_load_matrix_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 nan\n")
    with pytest.raises(ValueError):
        load_matrix(path)
