"""Chance-constraint machinery: the probabilistic scheduler and the
deterministic tightenings that make clean-sample constraints enforceable on
noisy intermediate states.

At time t the state decomposes as x_t = t x1 + (1-t) x0 with x0 standard
normal, so requiring g(x1) <= 0 with probability phi(t) is, for a halfspace
or a slab, equivalent to a deterministic constraint on x_t with a
quantile-dependent margin; the margin carries the noise scale
sigma(t) = (1-t)/t and vanishes at t = 1, where the original constraint is
recovered bitwise.

Both maps go member for member: tighten_set (the marginal reformulation)
and transport_set (the pathwise image under the realized x0) turn each clean
member into at most one member of its own kind, in the clean order. A
tightened set is therefore a plain ConstraintSet that the same projections
enforce exactly as they enforce the clean set.
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
    "transport_set",
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


def _margin(a: np.ndarray, t: float, satisfy_prob: float):
    """Noise margin t*sigma(t)*||a||*z of a face a.x at time t, with z the
    satisfy_prob normal quantile; exactly zero at t = 1. Rows (k, d) give
    one margin per row."""
    return t * sigma_of_t(t) * np.sqrt(np.vecdot(a, a)) * normal_quantile(satisfy_prob)


def tighten_linear(c: LinearIneq, t: float, satisfy_prob: float) -> LinearIneq:
    """Deterministic surrogate of P(a.x1 <= b) >= satisfy_prob at time t:
    a.x_t <= t*b - margin; at t = 1 the bound is b."""
    t = float(t)
    return LinearIneq(c.a, t * c.b - _margin(c.a, t, satisfy_prob))


def tighten_band(c: LinearBand, t: float, satisfy_prob: float) -> LinearBand | None:
    """Deterministic surrogate of P(lo <= a.x1 <= hi) >= satisfy_prob at time t,
    row by row.

    The risk is split evenly over the two sides, so each side takes the
    margin at (1 + p)/2: t*lo + m <= a.x_t <= t*hi - m, with m scaled by
    each row's norm. A row whose tightened sides cross has no state
    satisfying both and is left out for this step; None is returned when no
    row is left.
    """
    t = float(t)
    m = _margin(c.a, t, (1.0 + float(satisfy_prob)) / 2.0)
    return c.with_bounds(t * c.lo + m, t * c.hi - m)


class TightenedConstraint(LinearIneq):
    """Name of the former tightened-face type, kept only as a lookup site:
    perfbench/spans.py hooks ``TightenedConstraint.project``. Tightening
    returns plain LinearIneq and LinearBand members; nothing constructs this
    class."""


def tighten_set(cs: ConstraintSet, t: float, scheduler: Scheduler) -> ConstraintSet:
    """The marginal per-step set on x_t, as a ConstraintSet with cs.tol.

    Applies the probabilistic reformulations with satisfy_prob =
    clamp(phi(t)); only the MARGINAL_KINDS admit one. Each clean member
    becomes at most one member of its own type, in the clean order. Members
    with nothing enforceable this step are left out: all of them below the
    probability floor, and a band all of whose rows' tightened sides cross.
    """
    for c in cs.members:
        if not isinstance(c, MARGINAL_KINDS):
            raise ValueError(
                f"{type(c).__name__} has no marginal chance reformulation; "
                "set [sampler] mode = pathwise")
    t = float(t)
    phi = scheduler.phi(t)
    if phi < PHI_CLAMP:
        return ConstraintSet((), tol=cs.tol)
    phi = min(phi, 1.0 - PHI_CLAMP)
    out = (tighten_linear(c, t, phi) if isinstance(c, LinearIneq) else tighten_band(c, t, phi)
           for c in cs.members)
    return ConstraintSet(tuple(c for c in out if c is not None), tol=cs.tol)


def transport_set(cs: ConstraintSet, t: float, x0: np.ndarray) -> ConstraintSet:
    """The exact time-t set (1-t) x0 + t C under the realized x0, member for
    member, as a ConstraintSet with cs.tol."""
    x0 = np.asarray(x0, dtype=float)
    return ConstraintSet(tuple(_transport(c, float(t), x0) for c in cs.members), tol=cs.tol)


def _transport(c, t: float, x0: np.ndarray):
    """The time-t image of a clean constraint: g((x - (1-t) x0)/t) <= 0."""
    if isinstance(c, LinearIneq):
        shift = (1.0 - t) * float(c.a @ x0)
        return LinearIneq(c.a, t * c.b + shift)
    if isinstance(c, LinearBand):
        shift = (1.0 - t) * np.vecdot(x0, c.a)
        return c.with_bounds(t * c.lo + shift, t * c.hi + shift)
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
