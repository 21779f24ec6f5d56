"""Desk-scale 1-D reaction-diffusion benchmark.

The PDE is dv/dt = nu d2v/ds2 + rho v(1 - v) on [0, 1] with prescribed
boundary fluxes. The solver is a node-centered finite-volume scheme with
trapezoid cell weights, implicit diffusion, and explicit reaction; interior
fluxes telescope, so the discrete mass balance

    m(t_{k+1}) = m(t_k) + dt * (gL - gR + rho * sum_i w_i v_i^k (1 - v_i^k))

holds to rounding. The constraint assembly integrates the same quadrature
(trapezoid in space, left endpoint in time), which is what makes simulated
fields feasible for their own constraint set at machine accuracy. The set
holds two members: one LinearBand whose n_s unit rows pin every cell of
frame 0 (the initial condition), and a mass-law member whose 2 (n_t - 1)
faces are both sides of every later frame's balance, evaluated in one
vectorized pass with an analytic Jacobian. The batch metrics are
rd_violation_split, the worst violation of each of the two over a batch,
and oracles.moment_errors.

Flattened state convention: x[j * n_s + i] = v(s_i, t_j), so frame 0
occupies the first n_s entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .constraints import ConstraintSet, LinearBand, SmoothScalar, hinge_max
from .errors import NumericalError
from .numerics import stream_rng

__all__ = [
    "RdGrid",
    "RdProblem",
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
    into cell i (boundary fluxes are prescribed separately)."""
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


def simulate_rd(problem: RdProblem) -> np.ndarray:
    """Integrate the scheme; returns the field with shape (n_t, n_s)."""
    grid = problem.grid
    w = grid.cell_weights
    lap = _diffusion_operator(grid, problem.nu)
    lhs = np.diag(w) - grid.dt_phys * lap
    factor = scipy.linalg.cho_factor(lhs)
    boundary = np.zeros(grid.n_s)
    boundary[0] = problem.g_left
    boundary[-1] = -problem.g_right
    field = np.empty((grid.n_t, grid.n_s))
    field[0] = problem.ic
    v = problem.ic.copy()
    for k in range(1, grid.n_t):
        reaction = problem.rho * v * (1.0 - v) * w
        rhs = w * v + grid.dt_phys * (boundary + reaction)
        # check_finite=False so a blown-up reaction term reaches the
        # divergence check below instead of erroring inside the solver
        v = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
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


def _mass_constraint(problem: RdProblem) -> SmoothScalar:
    """Both sides of |h_k(x)| <= delta for every frame k >= 1, as one member
    with faces (+h_1 - delta, -h_1 - delta, +h_2 - delta, ...). h_k is the
    mass-balance defect of frame k against frame 0 plus the integrated
    reaction and boundary terms,

        h_k = w.v_k - w.v_0 - dt (k (gL - gR) + rho sum_{j<k} w.(v_j (1 - v_j))),
        dh_k/dx = e_k (x) w - e_0 (x) w - dt rho sum_{j<k} e_j (x) w (1 - 2 v_j).

    Frame sums use row-wise dot products (np.vecdot), which add in the same
    order as one w @ v_k per frame, so the faces match a per-frame loop
    bitwise.
    """
    grid = problem.grid
    n_t, n_s = grid.n_t, grid.n_s
    m = n_t - 1
    w = grid.cell_weights
    dt = grid.dt_phys
    rho = problem.rho
    delta = problem.delta
    boundary = np.arange(1, n_t) * (problem.g_left - problem.g_right)
    # The state-independent part of the Jacobian: +w on frame k, -w on frame 0.
    base = np.zeros((m, n_t, n_s))
    base[np.arange(m), np.arange(1, n_t)] = w
    base[:, 0] -= w
    earlier = np.tri(m, dtype=bool)[:, :, None]  # earlier[k-1, j] is j < k

    def both_sides(h: np.ndarray) -> np.ndarray:
        out = np.empty((2 * m,) + h.shape[1:])
        out[0::2] = h
        np.negative(h, out=out[1::2])
        return out

    def g(x: np.ndarray) -> np.ndarray:
        frames = x.reshape(n_t, n_s)
        mass = np.vecdot(frames, w)
        reaction = np.cumsum(np.vecdot(frames[:-1] * (1.0 - frames[:-1]), w))
        return both_sides(mass[1:] - mass[0] - dt * (boundary + rho * reaction)) - delta

    def grad(x: np.ndarray) -> np.ndarray:
        frames = x.reshape(n_t, n_s)
        jac = base.copy()
        jac[:, :-1] -= earlier * (dt * rho * w * (1.0 - 2.0 * frames[:-1]))
        return both_sides(jac.reshape(m, grid.d))

    return SmoothScalar(grid.d, g, grad, name="mass", n_faces=2 * m)


def rd_constraints(problem: RdProblem) -> ConstraintSet:
    """One band of n_s unit rows holding each cell of frame 0 within delta of
    the initial condition, then one member holding the two-sided mass
    balance of every later frame. The set's tolerance matches the band
    half-width delta."""
    grid = problem.grid
    ic_band = LinearBand(np.eye(grid.n_s, grid.d), problem.ic - problem.delta,
                         problem.ic + problem.delta)
    return ConstraintSet((ic_band, _mass_constraint(problem)), tol=problem.delta)


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
