"""Linear interpolation paths and their exact, training-free velocity field.

States travel along straight lines x_t = (1 - t) x0 + t x1 from a standard
normal source to a target distribution. For empirical (atom) and isotropic
Gaussian-mixture targets the marginal velocity has a closed form,

    u(x, t) = (xhat1(x, t) - x) / (1 - t),

where xhat1 is the posterior mean of the endpoint given the current state;
no network and no training enter anywhere.

The posterior weights are normalized by a NumPy log-sum-exp that performs
``scipy.special.logsumexp``'s arithmetic in the same order, without its
array-API dispatch, so the velocity is bitwise what SciPy's would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "T_CLAMP",
    "EmpiricalTarget",
    "GaussianMixtureTarget",
    "FlowModel",
    "interpolate",
    "recover_x1",
    "load_matrix",
]

# Velocity queries at t >= 1 - 1e-9 are evaluated at the clamp time: the
# samplers only query strictly below 1, but user-supplied grids may not.
T_CLAMP = 1.0 - 1e-9


def _normalized_weights(weights, m: int) -> np.ndarray:
    if weights is None:
        return np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"weights shape {w.shape} does not match {m} components")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    return w / total


def _log_weights(w: np.ndarray) -> np.ndarray:
    # A zero weight is allowed; its component gets log-weight -inf, silently.
    with np.errstate(divide="ignore"):
        return np.log(w)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array with at least one finite entry.

    The arithmetic of ``scipy.special.logsumexp`` in its order: the maximal
    entries are separated out of the sum and counted, so the result is
    bitwise SciPy's.
    """
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    if s != 0.0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


@dataclass(frozen=True)
class EmpiricalTarget:
    """Finite atom set {a_i} with optional probability weights."""

    atoms: np.ndarray
    weights: np.ndarray | None = None
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] == 0:
            raise ValueError(f"atoms must be a non-empty (m, d) array, got shape {atoms.shape}")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", _normalized_weights(self.weights, atoms.shape[0]))
        object.__setattr__(self, "log_weights", _log_weights(self.weights))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class GaussianMixtureTarget:
    """Isotropic Gaussian mixture: component j is N(mu_j, s_j^2 I)."""

    means: np.ndarray
    scales: np.ndarray
    weights: np.ndarray | None = None
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    scales_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2 or means.shape[0] == 0:
            raise ValueError(f"means must be a non-empty (m, d) array, got shape {means.shape}")
        scales = np.broadcast_to(np.asarray(self.scales, dtype=float), (means.shape[0],)).copy()
        if np.any(scales <= 0.0) or not np.all(np.isfinite(scales)):
            raise ValueError("scales must be finite and positive")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", _normalized_weights(self.weights, means.shape[0]))
        object.__setattr__(self, "log_weights", _log_weights(self.weights))
        object.__setattr__(self, "scales_sq", scales**2)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class FlowModel:
    """Bundles a target with the exact velocity field of its linear path."""

    target: EmpiricalTarget | GaussianMixtureTarget

    @property
    def dim(self) -> int:
        return self.target.dim

    def posterior_mean(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean of x1 given x_t = x, plus the component weights.

        Conditioned on the endpoint, x_t is N(t x1, (1-t)^2 I) (empirical
        target) or N(t mu_j, (t^2 s_j^2 + (1-t)^2) I) (mixture). Weights are
        computed in log space and normalized by log-sum-exp.
        """
        return self._posterior(*self._check_state(x, t))

    def velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        """Exact marginal velocity u(x, t) = (xhat1 - x) / (1 - t)."""
        x, t = self._check_state(x, t)
        xhat, _ = self._posterior(x, t)
        return (xhat - x) / (1.0 - t)

    def _check_state(self, x, t) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=float)
        t = _check_time(t)
        if x.shape != (self.dim,):
            raise ValueError(f"state shape {x.shape} does not match dimension {self.dim}")
        return x, t

    def _posterior(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        tgt = self.target
        if isinstance(tgt, EmpiricalTarget):
            diff = x[None, :] - t * tgt.atoms
            logw = tgt.log_weights - np.einsum("ij,ij->i", diff, diff) / (2.0 * (1.0 - t) ** 2)
            w = np.exp(logw - _logsumexp(logw))
            return w @ tgt.atoms, w
        var = t * t * tgt.scales_sq + (1.0 - t) ** 2
        diff = x[None, :] - t * tgt.means
        sq = np.einsum("ij,ij->i", diff, diff)
        logw = tgt.log_weights - 0.5 * self.dim * np.log(var) - sq / (2.0 * var)
        w = np.exp(logw - _logsumexp(logw))
        cond_means = tgt.means + (t * tgt.scales_sq / var)[:, None] * diff
        return w @ cond_means, w


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t!r}")
    return min(t, T_CLAMP)


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Point on the straight path: (1 - t) x0 + t x1, for t in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t!r}")
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != x1.shape:
        raise ValueError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
    return (1.0 - t) * x0 + t * x1


def recover_x1(x_t: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Invert the path for the endpoint: x1 = x_t / t - (1 - t)/t x0, t > 0.

    This is the path-inverting affine map M_t(x) = (x - (1 - t) x0) / t that
    the pathwise constraint transport composes constraints with.
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"recovery requires 0 < t <= 1, got {t!r}")
    x_t = np.asarray(x_t, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x_t.shape != x0.shape:
        raise ValueError(f"state shapes differ: {x_t.shape} vs {x0.shape}")
    return x_t / t - (1.0 - t) / t * x0


def load_matrix(path) -> np.ndarray:
    """Read a whitespace-delimited numeric matrix (one row per line)."""
    data = np.loadtxt(path, ndmin=2, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite entries in matrix file {path}")
    return data
