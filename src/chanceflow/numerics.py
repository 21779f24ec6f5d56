"""Low-level numerical kernels: normal quantiles, seeded RNG streams, SPD
solves and least-distance solves.

Everything downstream (constraint tightening, projections, samplers, the
reaction-diffusion simulator) routes its probability and linear-algebra needs
through this module so that accuracy and determinism are pinned in exactly one
place. Cholesky factors and solves call LAPACK dpotrf/dpotrs directly, with
the flags scipy.linalg.cho_factor/cho_solve pass (upper triangle, factor not
cleaned), so they give the same bytes without SciPy's array-API wrappers.
Least-distance problems go through SciPy's NNLS (Lawson-Hanson).

scipy.optimize, which holds NNLS, is imported on the first least-distance
solve, not with the module: it adds about 20 MB resident and 0.15-0.25 s of
import, and no shipped config solves one. A run that does pays that once,
inside the run. LAPACK stays a module-level import. Loading it lazily too
would take the mixture runs' resident size down by another 20 MB, but
the reaction-diffusion runs factor inside the run (simulate_rd, solve_spd),
so about 0.2 s of import would move into their run time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "stream_rng",
    "solve_spd",
    "least_distance",
]


def __getattr__(name: str):
    """The module attribute nnls (scipy.optimize.nnls), imported on first
    access and then kept in the module's globals (PEP 562).
    least_distance reads it at call time, so it can be replaced."""
    if name != "nnls":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import nnls
    globals()["nnls"] = nnls
    return nnls


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Rational minimax coefficients (Acklam) for a first guess at the normal
# quantile; accurate to ~1e-9 on its own, then polished below.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate in both tails via erfc."""
    return 0.5 * math.erfc(-float(z) / _SQRT2)


def _quantile_guess(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF with |Phi(z) - p| <= 1e-12.

    A rational approximation supplies the initial value; two Newton steps on
    Phi(z) - p (CDF evaluated through erfc, so the tails stay accurate)
    polish it to full double precision.

    Raises ValueError outside the open interval (0, 1).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p!r}")
    z = _quantile_guess(p)
    for _ in range(2):
        pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        if pdf <= 0.0:
            break
        z += (p - normal_cdf(z)) / pdf
    return z


def stream_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent, platform-stable generator for (seed, stream_id).

    Distinct stream ids under one seed give statistically independent streams
    (SeedSequence spawning keys), which is what makes per-sample draws immune
    to thread scheduling: each sample owns its stream regardless of which
    worker runs it.
    """
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=[seed, stream_id])))


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of SPD a, bitwise scipy.linalg.cho_factor(a)[0]
    (LAPACK dpotrf; the strict lower triangle keeps a's entries). Raises
    NumericalError if a is not positive definite."""
    factor, info = dpotrf(a, lower=False, clean=False)
    if info > 0:
        raise NumericalError(f"matrix is not positive definite (leading minor {info})")
    return factor


def _cho_solve(factor: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve A y = r from _cho_factor(A), bitwise scipy.linalg.cho_solve
    (LAPACK dpotrs). Entries of r are not checked for finiteness."""
    return dpotrs(factor, r, lower=False)[0]


def solve_spd(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve A y = r for symmetric positive definite A.

    Cholesky factorization (LAPACK potrf/potrs with SciPy's flags, so the
    bytes of scipy.linalg.cho_factor/cho_solve) followed by iterative
    refinement with extended-precision residuals; the result satisfies
    ``norm(A @ y - r) <= 1e-10 * (1 + norm(r))`` for condition numbers up to
    ~1e6. Raises NumericalError if A is not SPD, contains non-finite entries,
    or the residual contract cannot be met.
    """
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if r.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {r.shape} does not match matrix {a.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(r))):
        raise NumericalError("solve_spd: non-finite entries in the system")
    if not r.size:
        return r.copy()
    factor = _cho_factor(a)
    y = _cho_solve(factor, r)
    tol = 1e-10 * (1.0 + float(np.linalg.norm(r)))
    a_ext = np.asarray(a, dtype=np.longdouble)
    r_ext = np.asarray(r, dtype=np.longdouble)
    for _ in range(3):
        resid = r_ext - a_ext @ np.asarray(y, dtype=np.longdouble)
        if float(np.linalg.norm(np.asarray(resid, dtype=float))) <= tol:
            return y
        y = y + _cho_solve(factor, np.asarray(resid, dtype=float))
    resid = np.asarray(r_ext - a_ext @ np.asarray(y, dtype=np.longdouble), dtype=float)
    if float(np.linalg.norm(resid)) > tol:
        raise NumericalError("solve_spd: residual contract not met (system too ill-conditioned)")
    return y


def least_distance(a: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """Shortest u with a @ u <= h for nonzero rows a (m, n) and h (m,), or
    None when no u meets every row.

    Least-distance programming (Lawson & Hanson, Solving Least Squares
    Problems, ch. 23): with E = -[a^T; h^T] and f = e_{n+1}, the NNLS
    residual r = E w - f of min ||E w - f|| over w >= 0 gives u = -r[:n] / r[n],
    and r[n] = -||r||^2 is zero exactly when the rows are inconsistent. The
    rows are first scaled to unit length and h to largest magnitude 1, so the
    NNLS data are of order one, and u is scaled back. An h >= 0 gives u = 0.
    An r[n] within the rounding bound of its own sum, (m + 1) eps (1 + sum w),
    counts as zero. A nearly inconsistent system can still leave u short of
    some rows, so callers check the faces they solved for. An NNLS iteration
    cap raises NumericalError.
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    if (h >= 0.0).all():
        return np.zeros(a.shape[1])
    norms = np.sqrt(np.vecdot(a, a))
    h = h / norms
    scale = np.abs(h).max()
    e = -np.vstack([(a / norms[:, None]).T, h / scale])
    f = np.zeros(len(e))
    f[-1] = 1.0
    try:
        w, _ = (globals().get("nnls") or __getattr__("nnls"))(e, f)
    except RuntimeError as exc:
        raise NumericalError(f"least_distance: {exc}") from exc
    r = e @ w - f
    if -r[-1] <= (len(w) + 1) * np.finfo(float).eps * (1.0 + w.sum()):
        return None
    return (-scale / r[-1]) * r[:-1]
