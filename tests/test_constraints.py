"""Constraint families: face values of a state or a batch, hinge residuals,
active faces, Jacobians, and validation."""

import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chanceflow import (ConfigError, ConstraintSet, LinearBand, LinearIneq,
                        MinDistance, NumericalError, SmoothScalar, final_refine,
                        max_violation)
from chanceflow.config import parse_config
from chanceflow.constraints import ActiveRows, CoordinateRows, DenseRows, jacobian_active
from chanceflow.oracles import halfspace_qp_project
from chanceflow.numerics import stream_rng
from chanceflow.reaction_diffusion import RdGrid, rd_constraints, sample_rd_problem, simulate_rd

HALF = LinearIneq(np.array([1.0, 0.0]), 1.0)


def quadratic(a, b):
    """The band |a.x| <= sqrt(b) that a config's quadratic (a.x)^2 <= b
    parses to."""
    root = math.sqrt(b)
    return LinearBand(a, -root, root)


def disjoint_rows(v, cuts):
    """Rows holding the pieces of v between the cuts, zero elsewhere: their
    supports are disjoint, so A A^T is exactly diagonal."""
    pieces = np.split(np.arange(v.size), cuts)
    rows = np.zeros((len(pieces), v.size))
    for r, idx in enumerate(pieces):
        rows[r, idx] = v[idx]
    return rows


def fd_gradient(cs, x, face, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (cs.face_values(x + e)[face] - cs.face_values(x - e)[face]) / (2.0 * h)
    return g


def two_faces(x):
    return np.array([x[0] ** 2 + x[1] - 1.0, np.sin(x[0]) - x[1]])


def two_faces_jacobian(x):
    return np.array([[2.0 * x[0], 1.0], [np.cos(x[0]), -1.0]])


def residuals(cs, x):
    return np.maximum(0.0, cs.face_values(x))


def active_faces(cs, x):
    return [int(i) for i in np.nonzero(cs.face_values(x) > 0.0)[0]]


# --- face values of a state or a batch -----------------------------------------


def _batch_cases():
    # d = 8: wide enough that a BLAS matrix-vector product, or a norm
    # reduced along an axis, rounds differently from the one-state dot.
    a = stream_rng(21, 6).standard_normal((4, 8))
    smooth1 = SmoothScalar(8, lambda x: float(np.sin(x[0]) + x[1] * x[7] - 0.2),
                           lambda x: np.array([np.cos(x[0]), x[7], 0, 0, 0, 0, 0, x[1]]))
    smooth2 = SmoothScalar(2, two_faces, two_faces_jacobian, n_faces=2)
    rd_set = rd_constraints(sample_rd_problem(RdGrid(), stream_rng(21, 11)))
    return [
        ("linear", LinearIneq(a[0], 0.2)),
        ("band", LinearBand(a[1], -0.3, 0.9)),
        ("quadratic", quadratic(a[2], 1.2)),
        ("min_distance", MinDistance(a[3], 3.0)),
        ("min_distance_subset", MinDistance(a[3, :6], 2.0, coord_subset=(7, 0, 5, 2, 4, 1))),
        ("smooth", smooth1),
        ("smooth_multi_face", smooth2),
        ("mixed_set", ConstraintSet((
            LinearIneq(a[0], 0.3),
            LinearBand(a[1], -1.0, 1.0),
            quadratic(a[2], 2.0),
            MinDistance(np.array([0.5]), 0.5, coord_subset=(1,)),
            smooth1,
        ))),
        ("empty_set", ConstraintSet(())),
        ("band_block", LinearBand(disjoint_rows(a[1], (3, 5)), [-0.3, -1.0, 0.0],
                                  [0.9, 0.2, 1.5])),
        # A -0.0 lower bound: the zero face at x = 0 has one sign, alone or in a batch.
        ("band_negative_zero_bound", LinearBand(np.array([1.0]), -0.0, 5.0)),
        # The shipped reaction-diffusion set (d = 640) and its mass law alone.
        ("rd_set", rd_set),
        ("rd_mass_law", rd_set.members[1]),
    ]


@pytest.mark.parametrize("name, evaluator", _batch_cases())
@pytest.mark.parametrize("batch", [0, 1, 7, 300])
def test_batch_face_values_equal_stacked_rows(name, evaluator, batch):
    d = evaluator.dim or 8
    xs = 2.0 * stream_rng(21, 7).standard_normal((batch, d))
    if batch > 1:
        xs[-1] = 0.0  # the zero state, where a zero face shows its sign
    got = evaluator.face_values(xs)
    assert got.shape == (batch, evaluator.n_faces)
    rows = [evaluator.face_values(x) for x in xs]
    want = np.stack(rows) if rows else np.empty((0, evaluator.n_faces))
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zeros included


def test_negative_zero_band_bound_gives_one_zero_sign():
    band = LinearBand(np.array([1.0]), -0.0, 5.0)
    want = np.array([0.0, -5.0]).tobytes()
    assert band.face_values(np.zeros(1)).tobytes() == want
    assert band.face_values(np.zeros((1, 1)))[0].tobytes() == want
    assert ConstraintSet((band,)).face_values(np.zeros(1)).tobytes() == want


def _linear_runs():
    """Sets whose linear members are split by other kinds."""
    a = stream_rng(21, 9).standard_normal((5, 8))
    smooth = SmoothScalar(8, lambda x: float(x[0] * x[1] - 0.5),
                          lambda x: np.array([x[1], x[0], 0, 0, 0, 0, 0, 0]))
    ball = MinDistance(a[4], 1.5)
    line = LinearIneq(a[0], 0.4)
    band = LinearBand(a[1], -0.5, 0.7)
    block = LinearBand(disjoint_rows(a[2], (2, 6)), [-1.0, -0.2, 0.0], [0.3, 0.4, 2.0])
    return [
        ("linear_only", (line, band, block, LinearIneq(a[3], -0.1))),
        ("split_by_ball_and_smooth", (line, band, ball, block, LinearIneq(-a[0], 0.4), smooth,
                                      LinearIneq(a[3], 0.2))),
        ("smooth_first", (smooth, line, block)),
        ("no_linear", (ball, smooth)),
        ("empty", ()),
    ]


@pytest.mark.parametrize("name, members", _linear_runs())
def test_set_faces_are_the_concatenated_member_faces_bitwise(name, members):
    cs = ConstraintSet(members)
    xs = 2.0 * stream_rng(21, 10).standard_normal((50, 8))
    xs[0] = 0.0
    for x in (*xs, xs, xs[:0]):
        faces = [c.face_values(x) for c in members] or [np.empty(x.shape[:-1] + (0,))]
        want = np.concatenate(faces, axis=-1)
        assert cs.face_values(x).tobytes() == want.tobytes()


def test_one_state_face_values_keep_their_dot_product_formulas():
    a = stream_rng(21, 6).standard_normal((4, 8))
    line = LinearIneq(a[0], 0.2)
    band = LinearBand(a[1], -0.3, 0.9)
    quad = quadratic(a[2], 1.2)
    root = math.sqrt(1.2)
    ball = MinDistance(a[3], 3.0)
    for x in 2.0 * stream_rng(21, 8).standard_normal((300, 8)):
        s = float(a[1] @ x)
        q = float(a[2] @ x)
        assert line.face_values(x).tolist() == [float(a[0] @ x) - 0.2]
        assert band.face_values(x).tolist() == [-0.3 - s, s - 0.9]
        assert quad.face_values(x).tolist() == [-root - q, q - root]
        assert ball.face_values(x).tolist() == [3.0 - float(np.linalg.norm(x - a[3]))]


def test_set_face_values_raise_on_nan_face():
    # sqrt of a negative coordinate: g is NaN, not a satisfied face.
    root = SmoothScalar(2, lambda x: np.sqrt(x[0]) - 1.0,
                        lambda x: np.array([0.5 / np.sqrt(x[0]), 0.0]), validate=False)
    cs = ConstraintSet((root,))
    x = np.array([-4.0, 0.0])
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        max_violation(cs, x)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        final_refine(x, cs)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        cs.face_values(np.array([[4.0, 0.0], [-4.0, 0.0]]))


def test_set_face_values_reject_bad_shapes():
    cs = ConstraintSet((HALF,))
    with pytest.raises(ValueError):
        cs.face_values(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cs.face_values(np.zeros((1, 2, 2)))
    with pytest.raises(NumericalError):
        cs.face_values(np.array([[0.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        jacobian_active(cs, np.zeros((1, 2)), [0])


# --- residuals ----------------------------------------------------------------


def test_residual_violated_halfspace():
    cs = ConstraintSet((HALF,))
    assert np.array_equal(residuals(cs, np.array([2.0, 0.0])), [1.0])


def test_residual_interior_point_is_zero():
    cs = ConstraintSet((HALF,))
    assert np.array_equal(residuals(cs, np.array([0.0, 0.0])), [0.0])


def test_residual_quadratic():
    # (x)^2 <= 4 is |x| <= 2: at x = 3 the upper side is violated by 1.
    cs = ConstraintSet((quadratic(np.array([1.0]), 4.0),))
    assert np.array_equal(residuals(cs, np.array([3.0])), [0.0, 1.0])
    assert np.array_equal(residuals(cs, np.array([-3.0])), [1.0, 0.0])


def test_residuals_reject_non_finite_state():
    cs = ConstraintSet((HALF,))
    with pytest.raises(NumericalError):
        residuals(cs, np.array([np.inf, 0.0]))


@given(arrays(np.float64, (3,), elements=st.floats(-50, 50)))
@settings(max_examples=200, deadline=None)
def test_residuals_are_nonnegative(x):
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, -2.0, 0.5]), 0.3),
        LinearBand(np.array([0.0, 1.0, 1.0]), -1.0, 1.0),
        quadratic(np.array([1.0, 1.0, 1.0]), 2.0),
        MinDistance(np.zeros(3), 0.5),
    ))
    assert np.all(residuals(cs, x) >= 0.0)


# --- active set ----------------------------------------------------------------


def test_active_set_empty_when_feasible():
    cs = ConstraintSet((HALF,))
    assert active_faces(cs, np.array([0.5, 3.0])) == []


def test_active_set_picks_violated_indices():
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, 0.0]), 1.0),   # violated at x
        LinearIneq(np.array([1.0, 0.0]), 5.0),   # satisfied
        LinearIneq(np.array([0.0, 1.0]), 0.0),   # violated
    ))
    assert active_faces(cs, np.array([2.0, 1.0])) == [0, 2]


def test_active_set_matches_elementwise_signs():
    rng = stream_rng(21, 0)
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, 1.0]), 0.0),
        quadratic(np.array([1.0, -1.0]), 1.0),
        LinearBand(np.array([0.5, 2.0]), -0.5, 0.5),
    ))
    for _ in range(100):
        x = 3.0 * rng.standard_normal(2)
        want = [i for i, v in enumerate(cs.face_values(x)) if v > 0.0]
        assert active_faces(cs, x) == want


def test_active_set_is_support_of_residuals():
    rng = stream_rng(21, 1)
    cs = ConstraintSet((HALF, MinDistance(np.array([1.0, 1.0]), 0.7)))
    for _ in range(50):
        x = 2.0 * rng.standard_normal(2)
        r = residuals(cs, x)
        assert set(active_faces(cs, x)) == set(np.nonzero(r > 0.0)[0])


# --- Jacobians ------------------------------------------------------------------


def test_jacobian_linear_row():
    cs = ConstraintSet((LinearIneq(np.array([3.0, 4.0]), 0.0),))
    row = jacobian_active(cs, np.array([5.0, 5.0]), [0])
    assert np.array_equal(row, [[3.0, 4.0]])


def test_jacobian_quadratic_row():
    # x0^2 <= 1 is |x0| <= 1: the violated upper side's row is a, the
    # lower side's is -a.
    cs = ConstraintSet((quadratic(np.array([1.0, 0.0]), 1.0),))
    x = np.array([2.0, 5.0])
    assert active_faces(cs, x) == [1]
    assert np.array_equal(jacobian_active(cs, x, [1]), [[1.0, 0.0]])
    assert np.array_equal(jacobian_active(cs, -x, [0]), [[-1.0, 0.0]])


def test_jacobian_min_distance_row_is_inward_unit():
    c = MinDistance(np.zeros(2), 2.0)
    cs = ConstraintSet((c,))
    x = np.array([1.0, 0.0])
    row = jacobian_active(cs, x, [0])
    assert np.allclose(row, [[-1.0, 0.0]], atol=1e-14)


def test_jacobian_requires_active_faces():
    cs = ConstraintSet((HALF,))
    with pytest.raises(ValueError):
        jacobian_active(cs, np.zeros(2), [])


def test_min_distance_jacobian_defined_at_center():
    # At the center the row is -e_k along the first measured coordinate.
    c = MinDistance(np.array([1.0, -1.0]), 1.0)
    assert np.array_equal(c.jacobian(np.array([1.0, -1.0])), [[-1.0, 0.0]])
    sub = MinDistance(np.array([0.5, 2.0]), 1.0, coord_subset=(3, 1))
    want = np.zeros((1, 5))
    want[0, 3] = -1.0
    assert np.array_equal(sub.jacobian(np.array([7.0, 2.0, -4.0, 0.5, 9.0])), want)


def test_jacobians_match_finite_differences_on_probes():
    # 100 probe points per family, central differences, away from the
    # min-distance center, where the face has a kink.
    def g(x):
        return float(np.sin(x[0]) + x[1] ** 2 - 0.4)

    def grad(x):
        return np.array([np.cos(x[0]), 2.0 * x[1]])

    families = [
        LinearIneq(np.array([1.3, -0.4]), 0.2),
        LinearBand(np.array([0.7, 1.1]), -0.3, 0.9),
        quadratic(np.array([0.5, -1.5]), 1.2),
        MinDistance(np.array([0.2, 0.1]), 0.6),
        SmoothScalar(2, g, grad),
        SmoothScalar(2, two_faces, two_faces_jacobian, n_faces=2),
    ]
    rng = stream_rng(21, 2)
    for member in families:
        cs = ConstraintSet((member,))
        probes = 0
        while probes < 100:
            x = 2.0 * rng.standard_normal(2)
            if isinstance(member, MinDistance) and np.linalg.norm(x - member.center) < 0.05:
                continue
            probes += 1
            for face in range(member.n_faces):
                analytic = member.jacobian(x)[face]
                fd = fd_gradient(cs, x, face)
                scale = 1.0 + np.linalg.norm(fd)
                assert np.linalg.norm(analytic - fd) <= 1e-5 * scale, (member, x)


# --- max violation ---------------------------------------------------------------


def test_max_violation_zero_when_feasible():
    cs = ConstraintSet((HALF, quadratic(np.array([0.0, 1.0]), 4.0)))
    assert max_violation(cs, np.array([0.0, 0.0])) == 0.0


def test_max_violation_takes_the_larger():
    cs = ConstraintSet((
        LinearIneq(np.array([1.0]), 0.7),  # residual 0.3 at x=1
        LinearIneq(np.array([1.0]), 0.3),  # residual 0.7 at x=1
    ))
    assert max_violation(cs, np.array([1.0])) == pytest.approx(0.7)


def test_max_violation_equals_max_residual():
    rng = stream_rng(21, 3)
    cs = ConstraintSet((
        LinearIneq(np.array([1.0, 2.0]), -0.5),
        LinearBand(np.array([1.0, -1.0]), 0.0, 0.2),
        MinDistance(np.array([0.5, 0.5]), 1.0),
    ))
    for _ in range(100):
        x = 2.0 * rng.standard_normal(2)
        assert max_violation(cs, x) == residuals(cs, x).max()


def test_max_violation_empty_set():
    assert max_violation(ConstraintSet(()), np.array([1.0, 2.0])) == 0.0


@pytest.mark.parametrize("name, evaluator", _batch_cases())
@pytest.mark.parametrize("batch", [0, 1, 7, 300])
def test_batch_max_violation_equals_one_state_values(name, evaluator, batch):
    cs = evaluator if isinstance(evaluator, ConstraintSet) else ConstraintSet((evaluator,))
    xs = 2.0 * stream_rng(21, 8).standard_normal((batch, cs.dim or 8))
    got = max_violation(cs, xs)
    assert isinstance(got, np.ndarray) and got.shape == (batch,)
    want = np.array([max_violation(cs, x) for x in xs], dtype=float)
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zeros included


def test_max_violation_of_a_negative_zero_face_is_positive_zero():
    # -x^2 is -0.0 at x = 0, and the halfspace x <= 5 is well below it there.
    cs = ConstraintSet((SmoothScalar(1, lambda x: -x[0] ** 2, lambda x: -2.0 * x),
                        LinearIneq(np.array([1.0]), 5.0)))
    xs = np.array([[0.0], [1.0], [7.0]])
    assert np.signbit(cs.face_values(xs)[0]).tolist() == [True, True]
    assert max_violation(cs, xs).tobytes() == np.array([0.0, 0.0, 2.0]).tobytes()
    assert math.copysign(1.0, max_violation(cs, xs[0])) == 1.0


# --- band decomposition ------------------------------------------------------------


def test_band_equals_two_halfspaces():
    band = LinearBand(np.array([1.5, -0.5]), -0.2, 1.1)
    pair = ConstraintSet((
        LinearIneq(-band.a, -band.lo),
        LinearIneq(band.a, band.hi),
    ))
    rng = stream_rng(21, 4)
    for _ in range(200):
        x = 2.0 * rng.standard_normal(2)
        in_band = np.all(band.face_values(x) <= 0.0)
        in_pair = max_violation(pair, x) == 0.0
        assert in_band == in_pair


# --- blocks of orthogonal band rows -----------------------------------------------------


def frozen_band_faces(a, lo, hi, x):
    """A one-row band's faces as written before bands held blocks of rows."""
    s = np.vecdot(x, a)
    return np.array([lo - s, s - hi]).T


def frozen_band_project(a, lo, hi, x):
    """A one-row band's clip as written before bands held blocks of rows."""
    s = float(a @ x)
    c = min(max(s, lo), hi)
    if c == s:
        return np.array(x, dtype=float)
    return x + ((c - s) / float(a @ a)) * a


def random_blocks(rng, d, k):
    """k rows of disjoint random support in dimension d, with bounds."""
    rows = disjoint_rows(rng.standard_normal(d), np.sort(rng.choice(np.arange(1, d), k - 1,
                                                                    replace=False)))
    mid = rng.uniform(-1.0, 1.0, k)
    half = rng.exponential(0.5, k)
    return rows, mid - half, mid + half


def test_one_row_band_keeps_its_formulas_bitwise():
    rng = stream_rng(21, 11)
    moved = 0
    for _ in range(300):
        d = int(rng.integers(1, 13))
        a = rng.standard_normal(d)
        lo = float(rng.uniform(-1.5, 0.5))
        hi = lo + float(rng.exponential(1.0))
        xs = 2.0 * rng.standard_normal((5, d))
        for band in (LinearBand(a, lo, hi), LinearBand(a[None], [lo], [hi])):
            assert np.array_equal(band.face_values(xs), frozen_band_faces(a, lo, hi, xs))
            assert np.array_equal(band.jacobian(xs[0]), np.array([-a, a]))
            for x in xs:
                assert np.array_equal(band.face_values(x), frozen_band_faces(a, lo, hi, x))
                got = band.project(x)
                assert np.array_equal(got, frozen_band_project(a, lo, hi, x))
                moved += not np.array_equal(got, x)
    assert moved > 0


def test_band_block_projects_onto_its_halfspaces():
    rng = stream_rng(21, 12)
    for _ in range(60):
        d = int(rng.integers(3, 6))
        k = int(rng.integers(2, 4))
        rows, lo, hi = random_blocks(rng, d, k)
        band = LinearBand(rows, lo, hi)
        sides = [c for r in range(k)
                 for c in (LinearIneq(-rows[r], -lo[r]), LinearIneq(rows[r], hi[r]))]
        x = 2.0 * rng.standard_normal(d)
        got = band.project(x)
        assert np.allclose(got, halfspace_qp_project(x, sides), rtol=0.0, atol=1e-10)
        assert np.all(band.face_values(got) <= 1e-12)


def test_rotated_rows_make_a_block():
    # Orthogonal rows need not have disjoint support; the check is A A^T.
    band = LinearBand(np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0]]), [-1.0, 0.0], [1.0, 0.5])
    x = np.array([3.0, -2.0, 0.7])
    want = halfspace_qp_project(x, [LinearIneq(-band.a[0], 1.0), LinearIneq(band.a[0], 1.0),
                                    LinearIneq(-band.a[1], 0.0), LinearIneq(band.a[1], 0.5)])
    assert np.allclose(band.project(x), want, rtol=0.0, atol=1e-12)


def test_unit_row_block_equals_sequential_one_row_clips():
    # One-hot rows in any order: the one-pass clip is bitwise the chain of
    # one-row clips, and so are the faces and Jacobian rows.
    rng = stream_rng(21, 13)
    for _ in range(100):
        d = int(rng.integers(2, 40))
        k = int(rng.integers(1, d + 1))
        cells = rng.permutation(d)[:k]
        lo = rng.uniform(-1.0, 0.5, k)
        hi = lo + rng.exponential(0.5, k)
        block = LinearBand(np.eye(d)[cells], lo, hi)
        singles = [LinearBand(np.eye(d)[i], lo[r], hi[r]) for r, i in enumerate(cells)]
        for x in 1.5 * rng.standard_normal((3, d)):
            want = x
            for band in singles:
                want = band.project(want)
            assert np.array_equal(block.project(x), want)
            assert np.array_equal(block.face_values(x),
                                  np.concatenate([b.face_values(x) for b in singles]))
        assert np.array_equal(block.jacobian(x), np.vstack([b.jacobian(x) for b in singles]))


def test_jacobian_active_gathers_block_rows_in_listed_order():
    rows = disjoint_rows(np.arange(1.0, 5.0), (1, 3))
    block = LinearBand(rows, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    line = LinearIneq(np.array([0.5, 0.0, -1.0, 2.0]), 0.0)
    cs = ConstraintSet((line, block, line))
    x = np.array([0.3, -0.2, 1.1, 0.4])
    table = np.vstack([line.a, block.jacobian(x), line.a])
    for active in ([3, 0, 6, 1], [7, 6, 5, 4, 3, 2, 1, 0], [2], [4, 2]):
        assert np.array_equal(jacobian_active(cs, x, active), table[active])


def test_band_block_rejects_bad_rows_and_bounds():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="orthogonal"):
        LinearBand(np.array([[1.0, 1.0, 0.0], [1.0, 0.5, 0.0]]), [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lo <= hi"):
        LinearBand(eye, [0.0, 1.0, 0.0], [1.0, 0.5, 1.0])
    for lo, hi in (([0.0, np.nan, 0.0], [1.0, 1.0, 1.0]), ([0.0, 0.0, 0.0], [1.0, 1.0, np.nan])):
        with pytest.raises(ValueError, match="lo <= hi"):
            LinearBand(eye, lo, hi)
    with pytest.raises(ValueError, match="lo <= hi"):
        LinearBand(eye[0], np.nan, 1.0)
    for a, lo, hi in ((eye, [0.0, 0.0], [1.0, 1.0, 1.0]),
                      (eye, [0.0, 0.0, 0.0], [1.0, 1.0]),
                      (eye, 0.0, [1.0, 1.0, 1.0]),
                      (eye[0], [0.0], [1.0])):
        with pytest.raises(ValueError, match="shape"):
            LinearBand(a, lo, hi)
    with pytest.raises(ValueError, match="nonzero"):
        LinearBand(np.array([[1.0, 0.0], [0.0, 0.0]]), [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        LinearBand(np.ones((1, 1, 2)), [0.0], [1.0])


# --- row blocks against the dense Jacobian ---------------------------------------------


def assert_blocks_match_dense(cs, x, active, rng):
    """ActiveRows' J J^T and J^T y, and each member's block entries, against
    the products of the dense rows jacobian_active stacks: within 1e-13
    relative to the largest entry of the dense product."""
    jac = jacobian_active(cs, x, active)
    rows = ActiveRows(cs, x, active)
    gram = jac @ jac.T
    assert np.abs(rows.gram() - gram).max() <= 1e-13 * np.abs(gram).max()
    y = rng.standard_normal(len(active))
    want = jac.T @ y
    assert np.abs(rows.rmatvec(y) - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)
    owner, local = np.array(cs.faces)[active].T
    cols = rng.choice(x.size, size=min(x.size, 9), replace=False)
    for i in np.unique(owner):
        mine = local[owner == i]
        dense = cs.members[i].jacobian(x)[mine]
        block = cs.members[i].row_block(x, mine)
        assert np.array_equal(block.at(cols), dense[:, cols])
        assert np.array_equal(block.dense(), dense)


def coordinate_sets():
    # Coefficients other than +-1, and rows of different members on one column.
    d = 6
    e = np.eye(d)
    half = LinearIneq(2.5 * e[2], 0.3)
    block = LinearBand(np.array([-0.3 * e[2], 4.0 * e[0], 1e-3 * e[5]]),
                       [-1.0, -0.5, -2.0], [0.2, 0.5, 2.0])
    oblique = LinearIneq(np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.0]), 0.1)
    ball = MinDistance(np.array([0.3, -0.2, 0.1, 0.0, 0.5, -0.4]), 1.5)
    return [
        ("coordinate_only", ConstraintSet((half, block, LinearIneq(-0.7 * e[2], 0.4)))),
        ("coordinate_and_oblique", ConstraintSet((block, oblique, half))),
        ("ball_and_coordinate_halfspace", ConstraintSet((ball, half))),
        ("ball_coordinates_oblique", ConstraintSet((half, ball, block, oblique))),
    ]


@pytest.mark.parametrize("name, cs", coordinate_sets())
def test_row_blocks_match_the_dense_products(name, cs):
    rng = stream_rng(21, 20)
    for _ in range(20):
        x = 2.0 * rng.standard_normal(cs.dim or 6)
        active = np.sort(rng.choice(cs.n_faces, size=rng.integers(1, cs.n_faces + 1),
                                    replace=False))
        assert_blocks_match_dense(cs, x, active, rng)
        assert_blocks_match_dense(cs, x, rng.permutation(active), rng)
        assert_blocks_match_dense(cs, x, np.arange(cs.n_faces), rng)  # both sides of every band


def test_coordinate_rows_are_detected_from_the_coefficients():
    x = np.zeros(3)
    assert isinstance(LinearIneq(np.array([0.0, -2.0, 0.0]), 1.0).row_block(x, [0]),
                      CoordinateRows)
    assert isinstance(LinearBand(np.diag([1.0, 3.0, -0.5]), np.zeros(3), np.ones(3))
                      .row_block(x, [1, 4]), CoordinateRows)
    assert isinstance(LinearIneq(np.array([1.0, -2.0, 0.0]), 1.0).row_block(x, [0]),
                      DenseRows)
    mixed = LinearBand(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), [0.0, 0.0], [1.0, 1.0])
    assert isinstance(mixed.row_block(x, [0, 3]), DenseRows)


def test_coordinate_blocks_are_bitwise_the_dense_products():
    # One exact product per entry: the Gram of coordinate rows, and their
    # cross block with an oblique row, equal the dense J J^T bit for bit.
    rng = stream_rng(21, 21)
    for name, cs in coordinate_sets()[:2]:
        for _ in range(20):
            x = 2.0 * rng.standard_normal(cs.dim)
            jac = jacobian_active(cs, x, np.arange(cs.n_faces))
            assert np.array_equal(ActiveRows(cs, x, np.arange(cs.n_faces)).gram(), jac @ jac.T)


@pytest.mark.parametrize("n_s", [4, 7, 32])
@pytest.mark.parametrize("n_t", [2, 3, 20])
def test_reaction_diffusion_blocks_match_the_dense_products(n_s, n_t):
    grid = RdGrid(n_s=n_s, n_t=n_t, dt_phys=0.2)
    rng = stream_rng(21, 100 * n_s + n_t)
    problem = sample_rd_problem(grid, rng, rho=0.3)
    cs = rd_constraints(problem)
    sim = simulate_rd(problem).ravel()
    band_faces, mass_faces = 2 * n_s, 2 * (n_t - 1)
    for x in (sim, sim + 0.01 * rng.standard_normal(grid.d), rng.standard_normal(grid.d)):
        for _ in range(6):
            active = rng.choice(cs.n_faces, size=rng.integers(1, cs.n_faces + 1), replace=False)
            # both sides of one IC row and of one frame's balance
            row, frame = 2 * rng.integers(n_s), band_faces + 2 * rng.integers(n_t - 1)
            active = np.union1d(active, [row, row + 1, frame, frame + 1])
            assert_blocks_match_dense(cs, x, active, rng)
        assert_blocks_match_dense(cs, x, np.arange(band_faces, band_faces + mass_faces), rng)


# --- construction checks -------------------------------------------------------------


def test_rejects_zero_direction():
    with pytest.raises(ValueError):
        LinearIneq(np.zeros(2), 1.0)


def test_linear_kinds_reject_scalar_coefficients():
    with pytest.raises(ValueError, match=r"shape \(\)"):
        LinearIneq(2.0, 1.0)
    with pytest.raises(ValueError, match=r"shape \(\)"):
        LinearBand(3.0, -1.0, 1.0)


def test_band_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        LinearBand(np.array([1.0]), 2.0, 1.0)


@pytest.mark.parametrize("bound", [np.inf, -np.inf])
def test_linear_bounds_must_be_finite(bound):
    # An infinite bound would reach the least-distance solve as inf / inf.
    eye = np.eye(3)
    with pytest.raises(ValueError, match="halfspace bound b must be finite"):
        LinearIneq(eye[0], bound)
    for lo, hi in ((bound, bound), (min(bound, 0.0), max(bound, 0.0))):
        with pytest.raises(ValueError, match="band bounds lo and hi must be finite"):
            LinearBand(eye[0], lo, hi)
        with pytest.raises(ValueError, match="band bounds lo and hi must be finite"):
            LinearBand(eye, [-1.0, lo, -1.0], [1.0, hi, 1.0])


def test_quadratic_rejects_nonpositive_bound(tmp_path):
    # A quadratic exists only as a config block, so its bound is checked there.
    for bound in ("0", "-1", "nan", "inf"):
        path = tmp_path / "quad.cfg"
        path.write_text(textwrap.dedent(f"""\
            [experiment]
            id = quad
            [model]
            kind = mixture
            means = -1 0; 1 0
            scales = 0.5
            [sampler]
            algorithm = repeated
            [constraint.q]
            kind = quadratic
            a = 1 0
            b = {bound}
            """), encoding="utf-8")
        with pytest.raises(ConfigError, match="quadratic bound must be positive"):
            parse_config(str(path))


def test_min_distance_rejects_bad_radius():
    for radius in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="radius"):
            MinDistance(np.zeros(2), radius)


def test_min_distance_rejects_an_empty_center():
    for subset in (None, ()):
        with pytest.raises(ValueError, match="center"):
            MinDistance(np.array([]), 1.0, coord_subset=subset)


def test_min_distance_subset_selects_coordinates():
    c = MinDistance(np.array([0.0]), 1.0, coord_subset=(2,))
    x = np.array([9.0, 9.0, 0.25])
    assert c.face_values(x)[0] == pytest.approx(0.75)
    grad = c.jacobian(x)[0]
    assert np.allclose(grad, [0.0, 0.0, -1.0], atol=1e-14)


def test_smooth_scalar_rejects_wrong_gradient():
    with pytest.raises(ValueError):
        SmoothScalar(2, lambda x: float(x @ x), lambda x: np.array([1.0, 0.0]))


def test_smooth_scalar_accepts_consistent_pair():
    c = SmoothScalar(2, lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x)
    assert c.face_values(np.array([2.0, 0.0]))[0] == pytest.approx(3.0)


def test_multi_face_smooth_scalar_values_and_jacobian_rows():
    c = SmoothScalar(2, two_faces, two_faces_jacobian, n_faces=2)
    cs = ConstraintSet((HALF, c))
    x = np.array([0.3, -0.2])
    assert cs.n_faces == 3
    assert cs.faces == ((0, 0), (1, 0), (1, 1))
    assert np.array_equal(cs.face_values(x)[1:], two_faces(x))
    jac = two_faces_jacobian(x)
    assert np.array_equal(jacobian_active(cs, x, [2, 0, 1]), [jac[1], HALF.a, jac[0]])
    assert np.array_equal(cs.members[1].jacobian(x)[1], jac[1])
    xs = np.stack([x, 2.0 * x, -x])
    assert np.array_equal(c.face_values(xs), [two_faces(row) for row in xs])
    assert c.face_values(np.empty((0, 2))).shape == (0, 2)


def test_multi_face_smooth_scalar_rejects_wrong_output_shape():
    with pytest.raises(ValueError, match="shape"):
        SmoothScalar(2, lambda x: two_faces(x)[:1], two_faces_jacobian, n_faces=2)
    with pytest.raises(ValueError, match="shape"):
        SmoothScalar(2, two_faces, lambda x: two_faces_jacobian(x)[0], n_faces=2)
    with pytest.raises(ValueError, match="shape"):
        SmoothScalar(2, two_faces, lambda x: two_faces_jacobian(x).T[:, :1], n_faces=2)
    with pytest.raises(ValueError):
        SmoothScalar(2, two_faces, two_faces_jacobian, n_faces=0)


def test_multi_face_smooth_scalar_rejects_wrong_jacobian_row():
    def wrong_second_row(x):
        jac = two_faces_jacobian(x)
        jac[1, 0] += 0.5
        return jac

    with pytest.raises(ValueError, match="face 1"):
        SmoothScalar(2, two_faces, wrong_second_row, n_faces=2)


def test_jacobian_active_evaluates_a_member_jacobian_once():
    a = stream_rng(21, 5).standard_normal((4, 2))
    calls = []

    def counted_jacobian(x):
        calls.append(1)
        return a.copy()

    c = SmoothScalar(2, lambda x: a @ x - 1.0, counted_jacobian, n_faces=4)
    cs = ConstraintSet((c, HALF))
    x = np.array([0.7, -1.2])
    for active in ([0], [3], [0, 1, 2, 3], [4, 2, 0], [1, 4, 3]):
        calls.clear()
        rows = jacobian_active(cs, x, active)
        assert len(calls) == 1
        assert np.array_equal(rows, np.vstack([a, HALF.a])[active])
    calls.clear()
    jacobian_active(cs, x, [4])
    assert calls == []


def test_constraint_set_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        ConstraintSet((LinearIneq(np.array([1.0]), 0.0),
                       LinearIneq(np.array([1.0, 0.0]), 0.0)))


def test_constraint_set_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        ConstraintSet((HALF,), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_constraint_set_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        ConstraintSet((HALF,), tol=tol)


def test_constraint_set_face_ordering():
    cs = ConstraintSet((HALF, LinearBand(np.array([0.0, 1.0]), -1.0, 1.0)))
    assert cs.n_faces == 3
    assert cs.faces == ((0, 0), (1, 0), (1, 1))
