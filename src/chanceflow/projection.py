"""Euclidean projection operators.

Single halfspaces and slabs project in closed form; an intersection of them
with mutually orthogonal rows takes one pass of those clips, as none moves
another member's faces. Other intersections go through cyclic projections
with Dykstra corrections (plain cyclic projection finds a feasible point,
the corrections make its limit the nearest one). General constraint sets
use a ridge-regularized Gauss-Newton active-set iteration,

    x <- x - J^T (J J^T + lambda I)^{-1} r,

with hinge residuals r, the active-face Jacobian J recomputed every
iteration, and one fixed ridge lambda = 1e-6 (_RIDGE) that keeps the Schur
system SPD. Only the iteration budget and the stopping tolerance vary between
callers: the samplers' per-step correction takes one update at 1e-10, and
the strict terminal refinement (final_refine) up to 30 at cs.tol/16.

project(x, cs, gn_iters) is the one place that chooses among these three
routes, from the set alone. Clean, tightened and transported sets are all
ConstraintSets, so every per-step correction of every sampler goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, hinge_max, jacobian_active, max_violation
from .flow import interpolate, recover_x1
from .numerics import solve_spd

__all__ = [
    "ProjectionReport",
    "project",
    "project_pocs",
    "gauss_newton_project",
    "final_refine",
    "project_decomposed",
]

_POCS_CYCLES = 500
_RIDGE = 1e-6


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


def project(x: np.ndarray, cs: ConstraintSet, gn_iters: int = 30) -> np.ndarray:
    """Projection onto cs, by the cheapest exact route it admits.

    An orthogonal set (cs.orthogonal, as any set of at most one closed-form
    member is) takes one pass of its members' closed forms in declaration
    order; other closed-form sets go through Dykstra's cyclic projection;
    any other set takes a Gauss-Newton pass of at most gn_iters iterations.
    """
    if cs.orthogonal:
        for member in cs.members:
            x = member.project(x)
        return x
    if cs.all_closed_form:
        return project_pocs(x, cs, _POCS_CYCLES).x_out
    return gauss_newton_project(x, cs, gn_iters).x_out


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


def gauss_newton_project(x: np.ndarray, cs: ConstraintSet, max_iters: int = 30,
                         tol: float = 1e-10) -> ProjectionReport:
    """Active-set Gauss-Newton projection onto {x : g(x) <= 0}.

    Each iteration rebuilds the active set, hinge residuals, and Jacobian,
    then applies the ridge-regularized least-norm correction. Stops once the
    max violation is within tol (> 0) or after max_iters (>= 0) updates;
    either bound out of range raises ValueError. A feasible input returns
    unchanged with zero iterations. Every member's Jacobian is defined at
    every finite state, so a start at a keep-out ball's center steps out
    along the ball's center row like any other start.
    """
    if max_iters < 0:
        raise ValueError(f"iteration budget must be non-negative, got {max_iters}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    x = np.array(x, dtype=float)
    history = []
    iterations = 0
    while True:
        vals = cs.face_values(x)
        viol = hinge_max(vals)
        history.append(viol)
        if viol <= tol:
            return ProjectionReport(x, iterations, viol, True, tuple(history))
        if iterations >= max_iters:
            return ProjectionReport(x, iterations, viol, False, tuple(history))
        active = np.flatnonzero(vals > 0.0)
        jac = jacobian_active(cs, x, active)
        r = vals[active]
        schur = jac @ jac.T + _RIDGE * np.eye(len(active))
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
    report = gauss_newton_project(x, cs, int(budget), cs.tol / 16.0)
    y = report.x_out
    for member in cs.members:
        if member.has_closed_projection:
            y = member.project(y)
    viol = max_violation(cs, y)
    return ProjectionReport(y, report.iterations, viol, viol <= cs.tol,
                            report.history + (viol,))


def project_decomposed(x: np.ndarray, x0: np.ndarray, t: float, cs: ConstraintSet,
                       gn_iters: int = 30) -> np.ndarray:
    """Projection onto the time-t feasible set (1-t) x0 + t C.

    Exploits the path decomposition: pull the state back to clean
    coordinates with the inverse path map, project there with project, and
    interpolate back. Equals the direct Euclidean projection onto the
    transported set. The pull-back's faces are evaluated once, inside
    project: when it leaves the pull-back bitwise unmoved, the state itself
    is returned (a copy), not round-tripped through the path map. That holds
    for an exactly feasible pull-back and for one the route leaves in place
    within its own tolerance (Gauss-Newton's 1e-10).
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"decomposed projection requires 0 < t <= 1, got {t!r}")
    x = np.asarray(x, dtype=float)
    z = recover_x1(x, x0, t)
    y = project(z, cs, gn_iters)
    if np.array_equal(y, z):
        return x.copy()
    return interpolate(np.asarray(x0, dtype=float), y, t)
