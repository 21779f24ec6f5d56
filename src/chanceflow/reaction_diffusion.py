"""Desk-scale 1-D reaction-diffusion benchmark.

The PDE is dv/dt = nu d2v/ds2 + rho v(1 - v) on [0, 1] with prescribed
boundary fluxes. The solver is a node-centered finite-volume scheme with
trapezoid cell weights, implicit diffusion, and explicit reaction; the
implicit system is factored once by numerics' Cholesky pair (as every linear
solve in the package is) and reused for every frame. Interior fluxes
telescope, so the discrete mass balance

    m(t_{k+1}) = m(t_k) + dt * (gL - gR + rho * sum_i w_i v_i^k (1 - v_i^k))

holds to rounding. The constraint assembly integrates the same quadrature
(trapezoid in space, left endpoint in time), which is what makes simulated
fields feasible for their own constraint set at machine accuracy. The set
holds two members: one LinearBand whose n_s unit rows pin every cell of
frame 0 (the initial condition), and a MassBalance member whose 2 (n_t - 1)
faces are both sides of every later frame's balance, evaluated in one
vectorized pass for a state or a batch, with an analytic Jacobian.
Gauss-Newton never forms either member's dense rows: the band's unit rows
are coordinate rows, and the mass law's J J^T and J^T y follow from frame
sums (MassRows). The batch metrics are rd_violation_split, the worst
violation of each of the two over a batch, and oracles.moment_errors.

Flattened state convention: x[j * n_s + i] = v(s_i, t_j), so frame 0
occupies the first n_s entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, LinearBand, SmoothScalar, hinge_max
from .errors import NumericalError
from .numerics import _cho_factor, _cho_solve, stream_rng

__all__ = [
    "RdGrid",
    "RdProblem",
    "MassBalance",
    "simulate_rd",
    "rd_constraints",
    "rd_violation_split",
    "sample_rd_problem",
    "rd_dataset",
    "as_field",
]


@dataclass(frozen=True)
class RdGrid:
    """Space-time discretization; the flattened dimension is n_s * n_t."""

    n_s: int = 32
    n_t: int = 20
    length: float = 1.0
    dt_phys: float = 0.25

    def __post_init__(self):
        if self.n_s < 4 or self.n_t < 2:
            raise ValueError("grid needs n_s >= 4 and n_t >= 2")
        if not (0.0 < self.length < np.inf and 0.0 < self.dt_phys < np.inf):
            raise ValueError("length and dt_phys must be positive and finite")

    @property
    def d(self) -> int:
        return self.n_s * self.n_t

    @property
    def ds(self) -> float:
        return self.length / (self.n_s - 1)

    @property
    def s(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_s)

    @property
    def cell_weights(self) -> np.ndarray:
        """Trapezoid weights: ds for interior nodes, ds/2 at the endpoints."""
        w = np.full(self.n_s, self.ds)
        w[0] = w[-1] = 0.5 * self.ds
        return w


@dataclass(frozen=True)
class RdProblem:
    """One reaction-diffusion instance: coefficients, IC, fluxes, band width."""

    grid: RdGrid
    nu: float = 0.005
    rho: float = 0.01
    ic: np.ndarray = None
    g_left: float = 0.0
    g_right: float = 0.0
    delta: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.nu < np.inf and 0.0 <= self.rho < np.inf):
            raise ValueError("need finite nu > 0 and rho >= 0")
        if not 0.0 < self.delta < np.inf:
            raise ValueError("band half-width must be positive and finite")
        ic = np.asarray(self.ic, dtype=float)
        if ic.shape != (self.grid.n_s,):
            raise ValueError(f"ic shape {ic.shape} does not match grid ({self.grid.n_s},)")
        if not np.all(np.isfinite(ic)):
            raise ValueError("ic must be finite")
        object.__setattr__(self, "ic", ic)
        object.__setattr__(self, "g_left", float(self.g_left))
        object.__setattr__(self, "g_right", float(self.g_right))


def _diffusion_operator(grid: RdGrid, nu: float) -> np.ndarray:
    """Interior flux-divergence operator L: row i gives the net diffusive flux
    into cell i (boundary fluxes are prescribed separately). Tridiagonal:
    nu/ds off the diagonal, -2 nu/ds on it, -nu/ds at the two end cells."""
    n = grid.n_s
    coeff = nu / grid.ds
    lap = coeff * (np.eye(n, k=1) + np.eye(n, k=-1))
    np.fill_diagonal(lap, -2.0 * coeff)
    lap[0, 0] = lap[-1, -1] = -coeff
    return lap


def simulate_rd(problem: RdProblem) -> np.ndarray:
    """Integrate the scheme; returns the field with shape (n_t, n_s)."""
    grid = problem.grid
    w = grid.cell_weights
    lap = _diffusion_operator(grid, problem.nu)
    lhs = np.diag(w) - grid.dt_phys * lap
    factor = _cho_factor(lhs)
    boundary = np.zeros(grid.n_s)
    boundary[0] = problem.g_left
    boundary[-1] = -problem.g_right
    field = np.empty((grid.n_t, grid.n_s))
    field[0] = problem.ic
    v = problem.ic.copy()
    for k in range(1, grid.n_t):
        reaction = problem.rho * v * (1.0 - v) * w
        rhs = w * v + grid.dt_phys * (boundary + reaction)
        # the solve does not check rhs, so a blown-up reaction term reaches
        # the divergence check below
        v = _cho_solve(factor, rhs)
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"reaction-diffusion simulation diverged at frame {k}")
        field[k] = v
    return field


def as_field(x: np.ndarray, grid: RdGrid) -> np.ndarray:
    """Reshape a flattened state back to (n_t, n_s)."""
    x = np.asarray(x, dtype=float)
    if x.size != grid.d:
        raise ValueError(f"state size {x.size} does not match grid dimension {grid.d}")
    return x.reshape(grid.n_t, grid.n_s)


class _MassLaw:
    """The arrays of one problem's mass law, with its faces and dense
    Jacobian. They live apart from MassBalance so that the member's g and
    grad, bound here, hold no reference back to the member (which would
    keep every discarded member alive until a garbage collection)."""

    def __init__(self, problem: RdProblem):
        grid = problem.grid
        n_t, n_s = grid.n_t, grid.n_s
        m = n_t - 1
        self.grid = grid
        self.n_faces = 2 * m
        self.w = grid.cell_weights
        self.ww = np.vecdot(self.w, self.w)
        self.ncw = -(grid.dt_phys * problem.rho * self.w)
        self.dt = grid.dt_phys
        self.rho = problem.rho
        self.delta = problem.delta
        self.boundary = np.arange(1, n_t) * (problem.g_left - problem.g_right)
        # The state-independent part of the Jacobian: +w on frame k, -w on frame 0.
        self.base = np.zeros((m, n_t, n_s))
        self.base[np.arange(m), np.arange(1, n_t)] = self.w
        self.base[:, 0] -= self.w
        self.earlier = np.tri(m, dtype=bool)[:, :, None]  # earlier[k-1, j] is j < k

    def face_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        frames = x.reshape(x.shape[:-1] + (self.grid.n_t, self.grid.n_s))
        mass = np.vecdot(frames, self.w)
        early = frames[..., :-1, :]
        reaction = np.cumsum(np.vecdot(early * (1.0 - early), self.w), axis=-1)
        h = mass[..., 1:] - mass[..., :1] - self.dt * (self.boundary + self.rho * reaction)
        out = np.empty(h.shape[:-1] + (self.n_faces,))  # +h_1, -h_1, +h_2, ...
        out[..., 0::2] = h
        np.negative(h, out=out[..., 1::2])
        return np.subtract(out, self.delta, out=out)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        frames = np.asarray(x, dtype=float).reshape(self.grid.n_t, self.grid.n_s)
        jac = self.base.copy()
        jac[:, :-1] += self.earlier * (self.ncw * (1.0 - 2.0 * frames[:-1]))
        rows = jac.reshape(-1, self.grid.d)
        out = np.empty((self.n_faces, rows.shape[1]))
        out[0::2] = rows
        np.negative(rows, out=out[1::2])
        return out


class MassBalance(SmoothScalar):
    """Both sides of |h_k(x)| <= delta for every frame k >= 1, as one member
    with faces (+h_1 - delta, -h_1 - delta, +h_2 - delta, ...). h_k is the
    mass-balance defect of frame k against frame 0 plus the integrated
    reaction and boundary terms,

        h_k = w.v_k - w.v_0 - dt (k (gL - gR) + rho sum_{j<k} w.(v_j (1 - v_j))),
        dh_k/dx = e_k (x) w - e_0 (x) w - dt rho sum_{j<k} e_j (x) w (1 - 2 v_j).

    face_values takes one state or a batch; frame sums use row-wise dot
    products (np.vecdot), which add in the same order as one w @ v_k per
    frame, so the faces match a per-frame loop bitwise, and every row of a
    batch its own one-state value. jacobian gives the dense rows, which the
    construction-time finite-difference check and the generic pathwise
    transport (chance.transport_set) read. Gauss-Newton reads row_block
    instead, which never forms them (MassRows).
    """

    def __init__(self, problem: RdProblem):
        law = _MassLaw(problem)
        vars(self)["_law"] = law  # the member is frozen
        super().__init__(law.grid.d, law.face_values, law.jacobian, name="mass",
                         n_faces=law.n_faces)

    def face_values(self, x: np.ndarray) -> np.ndarray:
        return self._law.face_values(x)  # g, which takes a batch as well

    def row_block(self, x: np.ndarray, local) -> MassRows:
        return MassRows(self._law, x, local)


class MassRows:
    """Gradient rows of some mass-balance faces at one state, never formed.

    Notation: c u_f = dt rho w (1 - 2 v_f), a = -w - c u_0, and sigma = +1
    or -1 for the face's side. The row of h_k is a on frame 0, -c u_f on
    frames 1 <= f < k, w on frame k and 0 after, times sigma. So, with
    z_k = sigma_k y_k,

        G_kl = sigma_k sigma_l (|a|^2 + sum_{1<=f<min(k,l)} |c u_f|^2
                                + (|w|^2 if k = l else -w.c u_min(k,l))),
        J^T y = (sum_k z_k) a on frame 0, z_f w - c u_f sum_{k>f} z_k on frame f,

    in O(m n_s + n^2) for n rows over m = n_t - 1 frames, where the dense
    products take O(n^2 m n_s). Every entry (at) is bitwise that of
    MassBalance.jacobian; the Gram and J^T y add in another order than the
    dense products do, so they agree with them to rounding.
    """

    def __init__(self, law: _MassLaw, x: np.ndarray, local):
        grid = law.grid
        # below[f] is a row's entry on a frame f below its own frame k: a on
        # frame 0, -c u_f after it; the last frame is never below any k.
        below = np.zeros((grid.n_t, grid.n_s))
        np.multiply(law.ncw, 1.0 - 2.0 * x.reshape(grid.n_t, grid.n_s)[:-1], out=below[:-1])
        below[0] -= law.w
        self._law = law
        self._below = below
        self._k = local // 2 + 1
        self._sign = 1.0 - 2.0 * (local % 2)

    def at(self, cols) -> np.ndarray:
        w = self._law.w
        f, i = np.divmod(cols, w.size)
        k = self._k[:, None]
        entry = np.where(f < k, np.take(self._below, cols), np.where(f == k, np.take(w, i), 0.0))
        return self._sign[:, None] * entry

    def dense(self) -> np.ndarray:
        return self.at(np.arange(self._law.grid.d))

    def gram(self) -> np.ndarray:
        a, later = self._below[0], self._below[1:-1]
        frames = len(self._below)
        sq = np.zeros(frames)  # sq[j] = sum_{1<=f<j} |c u_f|^2
        np.cumsum(np.vecdot(later, later), out=sq[2:])
        cross = np.zeros(frames)  # cross[f] = -w.c u_f
        cross[1:-1] = np.vecdot(later, self._law.w)
        k = self._k
        low = np.minimum.outer(k, k)
        core = np.vecdot(a, a) + sq[low] + np.where(k[:, None] == k, self._law.ww, cross[low])
        return self._sign[:, None] * core * self._sign

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        below = self._below
        z = np.bincount(self._k, weights=self._sign * y, minlength=len(below))
        after = np.cumsum(z[::-1])[::-1]  # after[f] = sum_{k >= f} z_k
        out = np.empty(below.shape)
        out[0] = after[1] * below[0]
        out[1:] = z[1:, None] * self._law.w
        out[1:-1] += below[1:-1] * after[2:, None]
        return out.reshape(-1)


def rd_constraints(problem: RdProblem) -> ConstraintSet:
    """One band of n_s unit rows holding each cell of frame 0 within delta of
    the initial condition, then one member holding the two-sided mass
    balance of every later frame. The set's tolerance matches the band
    half-width delta."""
    grid = problem.grid
    ic_band = LinearBand(np.eye(grid.n_s, grid.d), problem.ic - problem.delta,
                         problem.ic + problem.delta)
    return ConstraintSet((ic_band, MassBalance(problem)), tol=problem.delta)


def rd_violation_split(finals: np.ndarray, cs: ConstraintSet) -> tuple[float, float]:
    """Worst hinge violation over a batch of states (B, d), split into the
    initial-condition band (cv_ic) and every other member (cv_cl): the
    CSV's cv_* columns."""
    cv_ic = 0.0
    cv_cl = 0.0
    for member in cs.members:
        worst = hinge_max(member.face_values(finals))
        if isinstance(member, LinearBand):
            cv_ic = max(cv_ic, worst)
        else:
            cv_cl = max(cv_cl, worst)
    return cv_ic, cv_cl


def sample_rd_problem(grid: RdGrid, rng: np.random.Generator, nu: float = 0.005,
                      rho: float = 0.01, delta: float = 1e-10) -> RdProblem:
    """Random instance: smooth cosine modes plus a localized bump around a
    0.5 baseline, with small random boundary fluxes."""
    s = grid.s
    ic = np.full(grid.n_s, 0.5)
    for mode in (1, 2):
        ic += rng.uniform(-0.12, 0.12) * np.cos(mode * np.pi * s / grid.length)
    center = rng.uniform(0.2, 0.8) * grid.length
    width = rng.uniform(0.05, 0.15) * grid.length
    ic += rng.uniform(-0.15, 0.15) * np.exp(-0.5 * ((s - center) / width) ** 2)
    g_left = rng.uniform(-0.02, 0.02)
    g_right = rng.uniform(-0.02, 0.02)
    return RdProblem(grid=grid, nu=nu, rho=rho, ic=ic, g_left=g_left,
                     g_right=g_right, delta=delta)


def rd_dataset(grid: RdGrid, n_fields: int, seed: int, nu: float = 0.005,
               rho: float = 0.01, delta: float = 1e-10):
    """Simulate n_fields random problems; returns (flattened fields (n, d),
    problem list). Stream i of the seed drives problem i."""
    fields = np.empty((n_fields, grid.d))
    problems = []
    for i in range(n_fields):
        problem = sample_rd_problem(grid, stream_rng(seed, i), nu=nu, rho=rho, delta=delta)
        fields[i] = simulate_rd(problem).reshape(-1)
        problems.append(problem)
    return fields, problems
