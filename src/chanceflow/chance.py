"""Chance-constraint machinery: the probabilistic scheduler and the
deterministic tightenings that make clean-sample constraints enforceable on
noisy intermediate states.

At time t the state decomposes as x_t = t x1 + (1-t) x0 with x0 standard
normal, so requiring g(x1) <= 0 with probability phi(t) is, for a halfspace
or a slab, equivalent to a deterministic constraint on x_t with a
quantile-dependent margin; the margin carries the noise scale
sigma(t) = (1-t)/t and vanishes at t = 1, where the original constraint is
recovered bitwise.

A tightened set is a plain ConstraintSet of the clean kinds: halfspaces in
marginal mode, the transported members in pathwise mode. Feasibility
is therefore enforced exactly as for the clean set, by the same projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (ConstraintSet, LinearBand, LinearIneq, MinDistance,
                          SmoothScalar)
from .flow import recover_x1
from .numerics import normal_quantile

__all__ = [
    "MARGINAL_KINDS",
    "PHI_CLAMP",
    "Scheduler",
    "sigma_of_t",
    "tighten_band",
    "tighten_linear",
    "tighten_set",
]

# Satisfaction probabilities closer than this to {0, 1} would need infinite
# quantiles: below the floor the constraint is vacuous for the step, above
# the ceiling the probability is clamped.
PHI_CLAMP = 1e-12

# The constraint kinds with a marginal chance reformulation.
MARGINAL_KINDS = (LinearIneq, LinearBand)


@dataclass(frozen=True)
class Scheduler:
    """Satisfaction-probability schedule phi(t) = (t/2)**n, n > 0.

    Small early values leave the flow unconstrained where the noise dominates;
    the probability then rises monotonically toward its t=1 value.
    """

    n: float

    def __post_init__(self):
        if not 0.0 < float(self.n) < np.inf:
            raise ValueError(f"scheduler exponent must be positive and finite, got {self.n}")
        object.__setattr__(self, "n", float(self.n))

    def phi(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time must lie in [0, 1], got {t!r}")
        return (t / 2.0) ** self.n


def sigma_of_t(t: float) -> float:
    """Relative noise scale sigma(t) = (1 - t)/t of the state at time t."""
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"sigma_of_t requires 0 < t <= 1, got {t!r}")
    return (1.0 - t) / t


def tighten_linear(c: LinearIneq, t: float, satisfy_prob: float) -> LinearIneq:
    """Deterministic surrogate of P(a.x1 <= b) >= satisfy_prob at time t.

    Returns a.x_t <= t*b - t*sigma(t)*||a||*z with z the satisfy_prob normal
    quantile; at t = 1 the margin term is exactly zero and the bound is b.
    """
    t = float(t)
    sigma = sigma_of_t(t)
    z = normal_quantile(satisfy_prob)
    rhs = t * c.b - t * sigma * float(np.linalg.norm(c.a)) * z
    return LinearIneq(c.a, rhs)


def tighten_band(c: LinearBand, t: float, satisfy_prob: float) -> tuple:
    """Deterministic surrogate of P(lo <= a.x1 <= hi) >= satisfy_prob at time t.

    Splits the risk evenly over the two sides (each tightened by tighten_linear
    at (1 + p)/2) and returns them as two halfspaces, lower side first as in
    the clean band's face order; that order is Dykstra's member cycle, which
    fixes its output bits. When the tightened sides cross, no state satisfies
    both and () is returned: nothing is enforced at this step.
    """
    side_prob = (1.0 + float(satisfy_prob)) / 2.0
    lower = tighten_linear(LinearIneq(-c.a, -c.lo), t, side_prob)
    upper = tighten_linear(LinearIneq(c.a, c.hi), t, side_prob)
    if upper.b < -lower.b:
        return ()
    return lower, upper


class TightenedConstraint(LinearIneq):
    """Name of the former tightened-face type, kept only as a lookup site:
    perfbench/spans.py hooks ``TightenedConstraint.project``. Tightening
    returns plain LinearIneq and LinearBand members; nothing constructs this
    class."""


def tighten_set(cs: ConstraintSet, t: float, scheduler: Scheduler, mode: str,
                x0: np.ndarray | None = None) -> ConstraintSet:
    """The per-step enforceable set on x_t, as a ConstraintSet with cs.tol.

    mode 'marginal' applies the probabilistic reformulations with
    satisfy_prob = clamp(phi(t)); only the MARGINAL_KINDS admit one. A
    halfspace tightens to a halfspace and a band to its two sides as
    halfspaces. Faces with nothing enforceable this step are left out: all
    of them below the probability floor, and a band whose tightened sides
    cross. mode 'pathwise' returns the exact time-t set (1-t) x0 + t C,
    member for member, using the realized x0.
    """
    t = float(t)
    if mode == "marginal":
        for c in cs.members:
            if not isinstance(c, MARGINAL_KINDS):
                raise ValueError(
                    f"{type(c).__name__} has no marginal chance reformulation; "
                    "use pathwise mode")
        phi = scheduler.phi(t)
        if phi < PHI_CLAMP:
            return ConstraintSet((), tol=cs.tol)
        phi = min(phi, 1.0 - PHI_CLAMP)
        out = []
        for c in cs.members:
            if isinstance(c, LinearIneq):
                out.append(tighten_linear(c, t, phi))
            else:
                out.extend(tighten_band(c, t, phi))
        return ConstraintSet(tuple(out), tol=cs.tol)
    if mode == "pathwise":
        if x0 is None:
            raise ValueError("pathwise tightening requires the realized x0")
        x0 = np.asarray(x0, dtype=float)
        return ConstraintSet(tuple(_transport(c, t, x0) for c in cs.members), tol=cs.tol)
    raise ValueError(f"unknown tightening mode {mode!r}")


def _transport(c, t: float, x0: np.ndarray):
    """The time-t image of a clean constraint: g((x - (1-t) x0)/t) <= 0."""
    if isinstance(c, LinearIneq):
        shift = (1.0 - t) * float(c.a @ x0)
        return LinearIneq(c.a, t * c.b + shift)
    if isinstance(c, LinearBand):
        shift = (1.0 - t) * float(c.a @ x0)
        return LinearBand(c.a, t * c.lo + shift, t * c.hi + shift)
    if isinstance(c, MinDistance):
        x0_sel = x0 if c.coord_subset is None else x0[list(c.coord_subset)]
        return MinDistance((1.0 - t) * x0_sel + t * c.center, t * c.radius, c.coord_subset)
    if isinstance(c, SmoothScalar):
        g, grad = c.g, c.grad
        return SmoothScalar(
            c.dim,
            lambda x, _g=g, _t=t, _x0=x0: _g(recover_x1(x, _x0, _t)),
            lambda x, _gr=grad, _t=t, _x0=x0: np.asarray(_gr(recover_x1(x, _x0, _t))) / _t,
            name=c.name,
            validate=False,
            n_faces=c.n_faces,
        )
    raise TypeError(f"unsupported constraint type {type(c).__name__}")
