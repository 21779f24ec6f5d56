"""Euclidean projection operators.

Single halfspaces and slabs project in closed form; an intersection of them
with mutually orthogonal rows takes one pass of those clips, as none moves
another member's faces. Other intersections are one least-distance problem
in the move u, solved exactly in finitely many steps through NNLS
(numerics.least_distance). General constraint sets use a ridge-regularized
Gauss-Newton active-set iteration,

    x <- x - J^T (J J^T + lambda I)^{-1} r,

with hinge residuals r, the active faces' Jacobian J re-evaluated every
iteration, and one fixed ridge lambda = 1e-6 (_RIDGE) that keeps the Schur
system SPD. J is never stacked into one dense matrix: J J^T and J^T y are
assembled from each member's row block (constraints.ActiveRows), so a
coordinate row costs one product per entry and the reaction-diffusion mass
law is read off frame sums. Only the iteration budget and the stopping
tolerance vary between callers: the samplers' per-step correction takes one
update at 1e-10, and the strict terminal refinement (final_refine) up to 30
at cs.tol/16.

project(x, cs, gn_iters) is the one place that chooses among these three
routes, from the set alone. Clean, tightened and transported sets are all
ConstraintSets, so every per-step correction of every sampler goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ActiveRows, ConstraintSet, hinge_max, max_violation
from .flow import interpolate, recover_x1
from .numerics import least_distance, solve_spd

__all__ = [
    "ProjectionReport",
    "project",
    "project_pocs",
    "gauss_newton_project",
    "final_refine",
    "project_decomposed",
]

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
    order; other closed-form sets take one least-distance solve
    (project_pocs); any other set takes a Gauss-Newton pass of at most
    gn_iters iterations.
    """
    if cs.orthogonal:
        for member in cs.members:
            x = member.project(x)
        return x
    if cs.all_closed_form:
        return project_pocs(x, cs).x_out
    return gauss_newton_project(x, cs, gn_iters).x_out


def project_pocs(x: np.ndarray, cs: ConstraintSet) -> ProjectionReport:
    """Nearest point in an intersection of halfspaces/slabs, in one solve.

    Every face is linear, g(x + u) = g(x) + A u with A the members' stacked
    Jacobian rows, so the projection is x + u for the shortest u with
    A u <= -g(x) (numerics.least_distance): exact up to rounding, with no
    iteration cap. An x on which every face is <= 0.0 (an empty set
    included) is returned as a copy with 0 iterations and history (0.0,). A
    state violating by no more than cs.tol is still projected, as one
    iteration. An inconsistent set, or a solved point still violating by
    more than cs.tol, is reported as a copy of x with converged=False, not
    raised; an NNLS failure raises NumericalError.
    """
    x0 = np.asarray(x, dtype=float)
    members = cs.members
    for c in members:
        if not c.has_closed_projection:
            raise TypeError(
                f"{type(c).__name__} has no closed-form projection; use gauss_newton_project")
    vals = cs.face_values(x0)
    viol = hinge_max(vals)
    if viol == 0.0:
        return ProjectionReport(x0.copy(), 0, 0.0, True, (0.0,))
    u = least_distance(np.concatenate([c.jacobian(x0) for c in members]), -vals)
    if u is not None:
        y = x0 + u
        after = max_violation(cs, y)
        if after <= cs.tol:
            return ProjectionReport(y, 1, after, True, (viol, after))
    return ProjectionReport(x0.copy(), 1, viol, False, (viol, viol))


def gauss_newton_project(x: np.ndarray, cs: ConstraintSet, max_iters: int = 30,
                         tol: float = 1e-10) -> ProjectionReport:
    """Active-set Gauss-Newton projection onto {x : g(x) <= 0}.

    Each iteration rebuilds the active set, hinge residuals, and Jacobian
    row blocks, then applies the ridge-regularized least-norm correction.
    Stops once the max violation is within tol (> 0) or after max_iters
    (>= 0) updates;
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
        rows = ActiveRows(cs, x, active)
        schur = rows.gram()
        schur.flat[::len(active) + 1] += _RIDGE
        x = x - rows.rmatvec(solve_spd(schur, vals[active]))
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
