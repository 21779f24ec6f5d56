"""Independent verification oracles and the run's quality metrics.

The samplers never call these routines: they re-derive answers by Monte
Carlo, exhaustive search, or small dense KKT solves so the fast closed forms
elsewhere have something honest to be checked against. A run's CSV takes
its feasibility rate, sliced W2 and moment errors from here
(feasibility_report, sliced_w2, moment_errors), and its reference batch,
unless loaded or simulated, from rejection_sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .constraints import ConstraintSet, LinearIneq, max_violation
from .errors import OracleFailure
from .flow import EmpiricalTarget, GaussianMixtureTarget
from .numerics import stream_rng

__all__ = [
    "McEstimate",
    "DistortionReport",
    "BruteForceConfig",
    "mc_chance",
    "brute_force_project",
    "sliced_w2",
    "moment_errors",
    "feasibility_report",
    "halfspace_qp_project",
    "sample_target",
    "rejection_sample",
]


@dataclass(frozen=True)
class McEstimate:
    """Binomial frequency estimate with its standard error."""

    p_hat: float
    stderr: float
    n_trials: int


@dataclass(frozen=True)
class DistortionReport:
    """How much a constrained sampler bent the flow: distance to a reference
    batch (None when either batch has fewer than 2 rows), terminal
    feasibility rate, and the average total projection move."""

    sliced_w2: float | None
    feasibility_rate: float
    mean_projection_move: float


@dataclass(frozen=True)
class BruteForceConfig:
    """Settings for brute_force_project.

    grid mode scans the lattice lo + h*Z^d (d <= 4); restarts mode runs
    seeded SLSQP descents from perturbed starts and keeps the best feasible
    result.
    """

    mode: str = "grid"
    h: float = 1e-3
    lo: np.ndarray | float = -2.0
    hi: np.ndarray | float = 2.0
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("grid", "restarts"):
            raise ValueError(f"unknown brute-force mode {self.mode!r}")
        if self.h <= 0.0:
            raise ValueError("lattice spacing must be positive")


def mc_chance(constraint, x_t: np.ndarray, t: float, n_trials: int,
              rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of P(g(x_t / t - xi) <= 0), xi = (1-t)/t * x0.

    This is the satisfaction probability of the clean constraint given the
    noisy state x_t, estimated by sampling the unresolved source noise.
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"mc_chance requires 0 < t <= 1, got {t!r}")
    n_trials = int(n_trials)
    if n_trials < 10_000:
        raise ValueError("n_trials below 1e4 gives a useless standard error")
    x_t = np.asarray(x_t, dtype=float)
    noise = rng.standard_normal((n_trials, x_t.size))
    y = x_t / t - ((1.0 - t) / t) * noise
    ok = max_violation(ConstraintSet((constraint,)), y) == 0.0
    p_hat = float(ok.mean())
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n_trials))
    return McEstimate(p_hat=p_hat, stderr=stderr, n_trials=n_trials)


def _grid_axes(x: np.ndarray, cfg: BruteForceConfig):
    lo = np.broadcast_to(np.asarray(cfg.lo, dtype=float), x.shape).astype(float)
    hi = np.broadcast_to(np.asarray(cfg.hi, dtype=float), x.shape).astype(float)
    if np.any(hi <= lo):
        raise ValueError("grid bounds must satisfy lo < hi")
    return [np.arange(lo[j], hi[j] + 0.5 * cfg.h, cfg.h) for j in range(x.size)]


def _slsqp_polish(x: np.ndarray, cs: ConstraintSet, start: np.ndarray) -> np.ndarray | None:
    """Local solve of min ||y - x||^2 s.t. face_values(y) <= 0; None if the
    result is not feasible to the set tolerance."""
    res = scipy.optimize.minimize(
        lambda y: float(np.sum((y - x) ** 2)),
        np.asarray(start, dtype=float),
        jac=lambda y: 2.0 * (y - x),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda y: -cs.face_values(y)}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    y = np.asarray(res.x, dtype=float)
    if max_violation(cs, y) <= max(cs.tol, 1e-9):
        return y
    return None


def brute_force_project(x: np.ndarray, cs: ConstraintSet,
                        cfg: BruteForceConfig = BruteForceConfig()) -> np.ndarray:
    """Projection oracle with no shared machinery.

    grid mode exhaustively scans a lattice for the nearest feasible point —
    which pins down the correct basin even for nonconvex sets — and then
    polishes it locally with SLSQP (the squared distance at the lattice
    optimum is within O(h) of the true minimum, but the *position* can be off
    by O(sqrt(h)) along flat directions, so the polish matters). restarts
    mode skips the lattice and takes the best of seeded SLSQP descents.
    Raises OracleFailure when no feasible candidate is found.
    """
    x = np.asarray(x, dtype=float)
    if max_violation(cs, x) == 0.0:
        return x.copy()
    if cfg.mode == "grid":
        if x.size > 4:
            raise ValueError("grid mode is limited to d <= 4")
        axes = _grid_axes(x, cfg)
        best = None
        best_d2 = np.inf
        # Slice along the first axis to keep the candidate matrix small.
        rest = axes[1:]
        rest_mesh = np.meshgrid(*rest, indexing="ij") if rest else []
        rest_pts = (np.stack([m.reshape(-1) for m in rest_mesh], axis=1)
                    if rest else np.zeros((1, 0)))
        for v0 in axes[0]:
            pts = np.concatenate([np.full((rest_pts.shape[0], 1), v0), rest_pts], axis=1)
            feas = max_violation(cs, pts) == 0.0
            if not feas.any():
                continue
            cand = pts[feas]
            d2 = np.sum((cand - x) ** 2, axis=1)
            i = int(np.argmin(d2))
            if d2[i] < best_d2:
                best_d2 = float(d2[i])
                best = cand[i].copy()
        if best is None:
            raise OracleFailure("no feasible lattice point in the search box")
        polished = _slsqp_polish(x, cs, best)
        if polished is not None and np.sum((polished - x) ** 2) <= best_d2:
            return polished
        return best
    # restarts mode
    best = None
    best_d2 = np.inf
    rng = stream_rng(cfg.seed, 0)
    scale = 1.0 + float(np.linalg.norm(x))
    for attempt in range(cfg.restarts):
        start = x if attempt == 0 else x + 0.3 * scale * rng.standard_normal(x.size)
        y = _slsqp_polish(x, cs, start)
        if y is not None:
            d2 = float(np.sum((y - x) ** 2))
            if d2 < best_d2:
                best_d2 = d2
                best = y
    if best is None:
        raise OracleFailure("no restart produced a feasible point")
    return best


def _quantiles(p: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """np.quantile(p, levels, axis=0) ("linear") for levels in [0, 1): one
    sort, then NumPy's own virtual index and two-sided lerp, so the bits agree,
    bar the sign of a zero quantile where -0.0 and +0.0 tie."""
    s = np.sort(p, axis=0)
    vi = (len(s) - 1) * levels
    lo = np.floor(vi).astype(np.intp)
    g = (vi - lo)[:, None]
    a, b = s[lo], s[lo + 1]
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def sliced_w2(batch_a: np.ndarray, batch_b: np.ndarray, n_projections: int = 128,
              rng: np.random.Generator | None = None) -> float:
    """Sliced Wasserstein-2 distance between two point batches.

    Averages the squared 1-D W2 (sorted coupling; for unequal sizes, quantiles
    from one sort and NumPy's lerp) over seeded random unit directions, scaled
    by the dimension so that isotropic Gaussian families match their
    closed-form W2 exactly in expectation. Non-finite entries raise ValueError.
    """
    a = np.asarray(batch_a, dtype=float)
    b = np.asarray(batch_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"batches must be 2-D with equal dimension, got {a.shape}, {b.shape}")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("need at least 2 points per batch")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("batches must be finite")
    if rng is None:
        rng = stream_rng(0, 0)
    d = a.shape[1]
    dirs = rng.standard_normal((int(n_projections), d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = a @ dirs.T
    pb = b @ dirs.T
    if a.shape[0] == b.shape[0]:
        qa = np.sort(pa, axis=0)
        qb = np.sort(pb, axis=0)
    else:
        m = max(a.shape[0], b.shape[0])
        levels = (np.arange(m) + 0.5) / m
        qa = _quantiles(pa, levels)
        qb = _quantiles(pb, levels)
    w2sq = np.mean((qa - qb) ** 2, axis=0)
    return float(np.sqrt(d * np.mean(w2sq)))


def moment_errors(generated: np.ndarray, reference: np.ndarray) -> tuple:
    """(mmse, smse): mean squared error over coordinates of a batch's mean
    and standard deviation against a reference; smse is None for one sample."""
    mmse = float(np.mean((generated.mean(axis=0) - reference.mean(axis=0)) ** 2))
    smse = (float(np.mean((generated.std(axis=0) - reference.std(axis=0)) ** 2))
            if generated.shape[0] >= 2 else None)
    return mmse, smse


def feasibility_report(records, cs: ConstraintSet, reference: np.ndarray,
                       n_projections: int = 128,
                       rng: np.random.Generator | None = None) -> DistortionReport:
    """Summarize a batch of SampleRecords against a reference batch."""
    if not records:
        raise ValueError("feasibility_report needs a nonempty batch")
    finals = np.stack([r.x1 for r in records])
    reference = np.asarray(reference, dtype=float)
    feasible = int(np.count_nonzero(max_violation(cs, finals) <= cs.tol))
    moves = float(np.mean([float(np.sum(r.projection_moves)) for r in records]))
    sw2 = None
    if finals.shape[0] >= 2 and reference.shape[0] >= 2:
        sw2 = sliced_w2(finals, reference, n_projections=n_projections, rng=rng)
    return DistortionReport(
        sliced_w2=sw2,
        feasibility_rate=feasible / len(records),
        mean_projection_move=moves,
    )


def halfspace_qp_project(x: np.ndarray, halfspaces) -> np.ndarray:
    """Exact projection onto an intersection of halfspaces by enumerating
    KKT active sets (dense solve per subset; intended for small systems)."""
    x = np.asarray(x, dtype=float)
    constraints = list(halfspaces)
    for c in constraints:
        if not isinstance(c, LinearIneq):
            raise TypeError("halfspace_qp_project expects LinearIneq members")
    a_mat = np.stack([c.a for c in constraints])
    b_vec = np.array([c.b for c in constraints])
    slack = 1e-10 * (1.0 + float(np.linalg.norm(x)))
    best = None
    best_d2 = np.inf
    for size in range(0, min(len(constraints), x.size) + 1):
        for subset in itertools.combinations(range(len(constraints)), size):
            if not subset:
                y = x.copy()
            else:
                a_s = a_mat[list(subset)]
                gram = a_s @ a_s.T
                try:
                    lam = np.linalg.solve(gram, a_s @ x - b_vec[list(subset)])
                except np.linalg.LinAlgError:
                    continue
                if np.any(lam < -slack):
                    continue
                y = x - a_s.T @ lam
            if np.any(a_mat @ y - b_vec > slack):
                continue
            d2 = float(np.sum((y - x) ** 2))
            if d2 < best_d2:
                best_d2 = d2
                best = y
    if best is None:
        raise OracleFailure("no KKT candidate was feasible")
    return best


def sample_target(target, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from an empirical or Gaussian-mixture target."""
    if isinstance(target, EmpiricalTarget):
        idx = rng.choice(target.atoms.shape[0], size=int(n), p=target.weights)
        return target.atoms[idx]
    if isinstance(target, GaussianMixtureTarget):
        idx = rng.choice(target.means.shape[0], size=int(n), p=target.weights)
        noise = rng.standard_normal((int(n), target.dim))
        return target.means[idx] + target.scales[idx][:, None] * noise
    raise TypeError(f"cannot sample from {type(target).__name__}")


def rejection_sample(target, cs: ConstraintSet, n: int, rng: np.random.Generator,
                     max_tries: int = 1000) -> np.ndarray:
    """Draws from the target conditioned on feasibility, by rejection."""
    out = []
    needed = int(n)
    for _ in range(max_tries):
        batch = sample_target(target, max(needed * 2, 64), rng)
        feas = max_violation(cs, batch) == 0.0
        kept = batch[feas]
        if kept.shape[0]:
            out.append(kept[:needed])
            needed -= min(needed, kept.shape[0])
        if needed == 0:
            return np.concatenate(out)[: int(n)]
    raise OracleFailure(f"rejection sampling exhausted {max_tries} rounds")
