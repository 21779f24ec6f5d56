"""Chance-constraint machinery: the probabilistic scheduler and the
deterministic tightenings that make clean-sample constraints enforceable on
noisy intermediate states.

At time t the state decomposes as x_t = t x1 + (1-t) x0 with x0 standard
normal, so requiring g(x1) <= 0 with probability phi(t) is, for linear and
quadratic g, equivalent to a deterministic constraint on x_t with a
quantile-dependent margin; the margin carries the noise scale
sigma(t) = (1-t)/t and vanishes at t = 1, where the original constraint is
recovered bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (ConstraintSet, LinearBand, LinearIneq, MinDistance,
                          QuadIneq, SmoothScalar)
from .flow import affine_map
from .numerics import normal_quantile

__all__ = [
    "PHI_CLAMP",
    "Scheduler",
    "TightenedConstraint",
    "sigma_of_t",
    "tighten_linear",
    "tighten_quadratic",
    "tighten_set",
]

# Satisfaction probabilities closer than this to {0, 1} would need infinite
# quantiles: below the floor the constraint is vacuous for the step, above
# the ceiling the probability is clamped.
PHI_CLAMP = 1e-12


@dataclass(frozen=True)
class Scheduler:
    """Satisfaction-probability schedule phi(t) = (t/2)**n, n > 0.

    Small early values leave the flow unconstrained where the noise dominates;
    the probability then rises monotonically toward its t=1 value.
    """

    n: float

    def __post_init__(self):
        if not float(self.n) > 0.0:
            raise ValueError(f"scheduler exponent must be positive, got {self.n}")
        object.__setattr__(self, "n", float(self.n))

    def phi(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time must lie in [0, 1], got {t!r}")
        return (t / 2.0) ** self.n


@dataclass(frozen=True)
class TightenedConstraint:
    """Per-step enforceable constraint on x_t.

    kind 'linear': a.x <= rhs; kind 'quadratic_band': |a.x| <= rhs; kind
    'inactive': nothing is enforced this step (either the scheduler floor or
    an unsatisfiable quadratic margin).
    """

    kind: str
    a: np.ndarray | None = None
    rhs: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic_band", "inactive"):
            raise ValueError(f"unknown tightened-constraint kind {self.kind!r}")
        if self.kind != "inactive":
            a = np.asarray(self.a, dtype=float)
            if a.ndim != 1 or np.linalg.norm(a) == 0.0:
                raise ValueError("tightened constraint needs a nonzero direction")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "rhs", float(self.rhs))

    def violation(self, x: np.ndarray) -> float:
        if self.kind == "inactive":
            return 0.0
        s = float(self.a @ x)
        if self.kind == "linear":
            return max(0.0, s - self.rhs)
        return max(0.0, abs(s) - self.rhs)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Closed-form Euclidean projection onto the constraint."""
        if self.kind == "inactive":
            return np.array(x, dtype=float)
        s = float(self.a @ x)
        if self.kind == "linear":
            target = min(s, self.rhs)
        else:
            target = min(max(s, -self.rhs), self.rhs)
        if target == s:
            return np.array(x, dtype=float)
        return x + ((target - s) / float(self.a @ self.a)) * self.a


_INACTIVE = TightenedConstraint(kind="inactive")


def sigma_of_t(t: float) -> float:
    """Relative noise scale sigma(t) = (1 - t)/t of the state at time t."""
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"sigma_of_t requires 0 < t <= 1, got {t!r}")
    return (1.0 - t) / t


def tighten_linear(c: LinearIneq, t: float, satisfy_prob: float) -> TightenedConstraint:
    """Deterministic surrogate of P(a.x1 <= b) >= satisfy_prob at time t.

    Returns a.x_t <= t*b - t*sigma(t)*||a||*z with z the satisfy_prob normal
    quantile; at t = 1 the margin term is exactly zero and the rhs is b.
    """
    t = float(t)
    sigma = sigma_of_t(t)
    z = normal_quantile(satisfy_prob)
    rhs = t * c.b - t * sigma * float(np.linalg.norm(c.a)) * z
    return TightenedConstraint(kind="linear", a=c.a, rhs=rhs)


def tighten_quadratic(c: QuadIneq, t: float, satisfy_prob: float) -> TightenedConstraint:
    """Deterministic surrogate of P((a.x1)^2 <= b) >= satisfy_prob at time t.

    Splits the risk over the two tails (z at (1 + p)/2) and enforces
    |a.x_t| <= t*(sqrt(b) - sigma*||a||*z). When the margin exceeds sqrt(b)
    the band would be empty, so the step is marked inactive instead.
    """
    t = float(t)
    sigma = sigma_of_t(t)
    z = normal_quantile((1.0 + float(satisfy_prob)) / 2.0)
    half_width = math.sqrt(c.b) - sigma * float(np.linalg.norm(c.a)) * z
    if half_width < 0.0:
        return _INACTIVE
    return TightenedConstraint(kind="quadratic_band", a=c.a, rhs=t * half_width)


def _tighten_band(c: LinearBand, t: float, phi: float) -> list[TightenedConstraint]:
    # Split the allowed risk evenly across the two sides of the slab.
    side_prob = (1.0 + phi) / 2.0
    upper = tighten_linear(LinearIneq(c.a, c.hi), t, side_prob)
    lower = tighten_linear(LinearIneq(-c.a, -c.lo), t, side_prob)
    if upper.rhs < -lower.rhs:
        # The two tightened sides cross: no state can satisfy both, so the
        # band is unenforceable at this step (same treatment as the
        # quadratic feasibility condition).
        return [_INACTIVE, _INACTIVE]
    return [lower, upper]


def tighten_set(cs: ConstraintSet, t: float, scheduler: Scheduler, mode: str,
                x0: np.ndarray | None = None):
    """Per-step enforceable constraints on x_t for the whole set.

    mode 'marginal' returns a list of TightenedConstraint built from the
    probabilistic reformulations with satisfy_prob = clamp(phi(t)); only
    linear, band, and quadratic kinds admit one. mode 'pathwise' returns the
    exact time-t set (1-t) x0 + t C as a ConstraintSet of the same kinds,
    using the realized x0.
    """
    t = float(t)
    if mode == "marginal":
        for c in cs.members:
            if not isinstance(c, (LinearIneq, LinearBand, QuadIneq)):
                raise ValueError(
                    f"{type(c).__name__} has no marginal chance reformulation; "
                    "use pathwise mode")
        phi = scheduler.phi(t)
        if phi < PHI_CLAMP:
            return [_INACTIVE for c in cs.members for _ in range(c.n_faces)]
        phi = min(phi, 1.0 - PHI_CLAMP)
        out: list[TightenedConstraint] = []
        for c in cs.members:
            if isinstance(c, LinearIneq):
                out.append(tighten_linear(c, t, phi))
            elif isinstance(c, LinearBand):
                out.extend(_tighten_band(c, t, phi))
            else:
                out.append(tighten_quadratic(c, t, phi))
        return out
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
    if isinstance(c, QuadIneq):
        shift = (1.0 - t) * float(c.a @ x0)
        root = math.sqrt(c.b)
        return LinearBand(c.a, shift - t * root, shift + t * root)
    if isinstance(c, MinDistance):
        x0_sel = x0 if c.coord_subset is None else x0[list(c.coord_subset)]
        return MinDistance((1.0 - t) * x0_sel + t * c.center, t * c.radius, c.coord_subset)
    if isinstance(c, SmoothScalar):
        g, grad = c.g, c.grad
        return SmoothScalar(
            c.dim,
            lambda x, _g=g, _t=t, _x0=x0: _g(affine_map(x, _x0, _t)),
            lambda x, _gr=grad, _t=t, _x0=x0: np.asarray(_gr(affine_map(x, _x0, _t))) / _t,
            name=c.name,
            validate=False,
            n_faces=c.n_faces,
        )
    raise TypeError(f"unsupported constraint type {type(c).__name__}")
