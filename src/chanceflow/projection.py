"""Euclidean projection operators.

Single halfspaces and slabs project in closed form. Intersections of such
sets go through cyclic projections with Dykstra corrections (plain cyclic
projection finds a feasible point but not the nearest one; the correction
vectors make the limit the true Euclidean projection). General constraint
sets use a ridge-regularized Gauss-Newton active-set iteration,

    x <- x - J^T (J J^T + lambda I)^{-1} r,

with hinge residuals r and the active-face Jacobian J recomputed every
iteration; the same iteration with a fixed budget serves as the strict
terminal refinement.

project(x, cs, gn) is the one place that chooses among them. Clean,
tightened and transported sets are all ConstraintSets, so every per-step
correction of every sampler goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, hinge_max, jacobian_active, max_violation
from .errors import GradientSingularityError
from .flow import interpolate, recover_x1
from .numerics import solve_spd, stream_rng

__all__ = [
    "GnConfig",
    "ProjectionReport",
    "project",
    "project_pocs",
    "gauss_newton_project",
    "final_refine",
    "project_decomposed",
]

_POCS_CYCLES = 500
_NUDGE_SEED = 0x0DD5_EED  # deterministic escape direction for singular gradients


@dataclass(frozen=True)
class GnConfig:
    """Gauss-Newton projection settings; the ridge keeps the Schur system SPD."""

    lam: float = 1e-6
    max_iters: int = 30
    tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"ridge parameter must be positive and finite, got {self.lam}")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 0:
            raise ValueError("iteration budget must be non-negative")


@dataclass(frozen=True)
class ProjectionReport:
    """Outcome of an iterative projection.

    history holds the max violation measured before each update and once
    after the last one, so history[0] is the starting violation and
    history[-1] equals final_max_violation.
    """

    x_out: np.ndarray
    iterations: int
    final_max_violation: float
    converged: bool
    history: tuple = ()


def project(x: np.ndarray, cs: ConstraintSet, gn: GnConfig = GnConfig()) -> np.ndarray:
    """Projection onto cs, by the cheapest exact route it admits.

    An empty set returns x; a single closed-form member projects in closed
    form; an intersection of closed-form members goes through Dykstra's
    cyclic projection; any other set takes the configured Gauss-Newton pass.
    """
    if not cs.members:
        return x
    if cs.all_closed_form:
        if len(cs.members) == 1:
            return cs.members[0].project(x)
        return project_pocs(x, cs, _POCS_CYCLES).x_out
    return gauss_newton_project(x, cs, gn).x_out


def project_pocs(x: np.ndarray, cs: ConstraintSet,
                 max_cycles: int = _POCS_CYCLES) -> ProjectionReport:
    """Nearest point in an intersection of halfspaces/slabs (Dykstra).

    An x on which every face is <= 0.0 (an empty set included) is returned
    as a copy with 0 cycles and history (0.0,): a cycle over it would move
    nothing. A state violating by no more than cs.tol is still projected.
    Otherwise cycles through the members of cs in declaration order, each
    time projecting the current iterate plus its accumulated correction;
    converges to the Euclidean projection for consistent convex sets. Stops
    once max_violation is within cs.tol and a cycle moves the iterate by no
    more than cs.tol (relative). Non-convergence within max_cycles is
    reported, not raised.
    """
    x0 = np.asarray(x, dtype=float)
    members = cs.members
    for c in members:
        if not c.has_closed_projection:
            raise TypeError(
                f"{type(c).__name__} has no closed-form projection; use gauss_newton_project")
    viol = max_violation(cs, x0)
    if viol == 0.0:
        return ProjectionReport(x0.copy(), 0, 0.0, True, (0.0,))
    cur = x0.copy()
    corrections = [np.zeros_like(cur) for _ in members]
    history = []
    for cycle in range(1, int(max_cycles) + 1):
        prev = cur
        for i, c in enumerate(members):
            shifted = cur + corrections[i]
            cur = c.project(shifted)
            corrections[i] = shifted - cur
        viol = max_violation(cs, cur)
        history.append(viol)
        if viol <= cs.tol and np.linalg.norm(cur - prev) <= cs.tol * (1.0 + np.linalg.norm(cur)):
            return ProjectionReport(cur, cycle, viol, True, tuple(history))
    return ProjectionReport(cur, int(max_cycles), viol, viol <= cs.tol, tuple(history))


def gauss_newton_project(x: np.ndarray, cs: ConstraintSet,
                         cfg: GnConfig = GnConfig()) -> ProjectionReport:
    """Active-set Gauss-Newton projection onto {x : g(x) <= 0}.

    Each iteration rebuilds the active set, hinge residuals, and Jacobian,
    then applies the ridge-regularized least-norm correction. A feasible
    input returns unchanged with zero iterations. A singular gradient
    (min-distance center) is escaped by a deterministic 1e-8 nudge.
    """
    x = np.array(x, dtype=float)
    history = []
    nudges = 0
    iterations = 0
    while True:
        vals = cs.face_values(x)
        viol = hinge_max(vals)
        history.append(viol)
        if viol <= cfg.tol:
            return ProjectionReport(x, iterations, viol, True, tuple(history))
        if iterations >= cfg.max_iters:
            return ProjectionReport(x, iterations, viol, False, tuple(history))
        active = [int(i) for i in np.nonzero(vals > 0.0)[0]]
        try:
            jac = jacobian_active(cs, x, active)
        except GradientSingularityError:
            if nudges >= 3:
                raise
            direction = stream_rng(_NUDGE_SEED, nudges).standard_normal(x.size)
            x = x + 1e-8 * direction / np.linalg.norm(direction)
            nudges += 1
            history.pop()
            continue
        r = vals[active]
        schur = jac @ jac.T + cfg.lam * np.eye(len(active))
        y = solve_spd(schur, r)
        dx = -(jac.T @ y)
        x = x + dx
        iterations += 1


def final_refine(x: np.ndarray, cs: ConstraintSet, budget: int = 30) -> ProjectionReport:
    """Strict terminal projection: Gauss-Newton until max_violation <= cs.tol.

    The Gauss-Newton pass aims well below the set tolerance, and members with
    an exact closed-form projection get one final application of it, so their
    faces end exactly on or inside the boundary (a coordinate band, for
    instance, finishes with violation 0.0, not 1e-12). Each exact polish can
    perturb the other members only by the polishing move itself, which is
    bounded by the already-tiny residual violation. Running out of budget is
    reported via converged=False, never silently.
    """
    cfg = GnConfig(max_iters=int(budget), tol=cs.tol / 16.0)
    report = gauss_newton_project(x, cs, cfg)
    y = report.x_out
    for member in cs.members:
        if member.has_closed_projection:
            y = member.project(y)
    viol = max_violation(cs, y)
    return ProjectionReport(y, report.iterations, viol, viol <= cs.tol,
                            report.history + (viol,))


def project_decomposed(x: np.ndarray, x0: np.ndarray, t: float, cs: ConstraintSet,
                       cfg: GnConfig = GnConfig()) -> np.ndarray:
    """Projection onto the time-t feasible set (1-t) x0 + t C.

    Exploits the path decomposition: pull the state back to clean
    coordinates with the inverse path map, project there with project, and
    interpolate back. Equals the direct Euclidean projection onto the
    transported set. A state whose pull-back is already feasible is returned
    as it is, not round-tripped through the path map.
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"decomposed projection requires 0 < t <= 1, got {t!r}")
    x = np.asarray(x, dtype=float)
    if not cs.members:
        return x.copy()
    z = recover_x1(x, x0, t)
    if max_violation(cs, z) == 0.0:
        return x.copy()
    return interpolate(np.asarray(x0, dtype=float), project(z, cs, cfg), t)
