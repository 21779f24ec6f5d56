"""Sampling algorithms over the exact flow: unconstrained integration,
per-step projection onto the clean set, extrapolate-correct-interpolate, and
chance-constrained projection with a probabilistic schedule.

All samplers run one loop over the uniform grid t_k = k/N and differ in two
places only: the length of the one Euler predictor (the step to t_{k+1},
or eci's extrapolation to t = 1) and the correction (none, projection onto
the clean set, onto the marginal tightened set of step k, or onto the
transported set).
Every correction goes through the same projection dispatch. Each sample is
a pure function of (model, constraints, config, sample index): the index
selects an RNG stream, so batches are reproducible bitwise regardless of
execution order or thread count.
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chance import Scheduler, tighten_set
from .constraints import ConstraintSet, max_violation
from .flow import FlowModel, interpolate
from .numerics import stream_rng
# project_pocs (the least-distance solve for non-orthogonal linear sets) and
# gauss_newton_project are reached through project; they stay importable here,
# under these names, because perfbench/spans.py hooks them at this site.
from .projection import (final_refine, gauss_newton_project,  # noqa: F401
                         project, project_decomposed, project_pocs)

__all__ = [
    "SamplerConfig",
    "SampleRecord",
    "sample_vanilla",
    "sample_repeated",
    "sample_eci",
    "sample_ccfm",
    "run_batch",
]

ALGORITHMS = ("vanilla", "repeated", "eci", "ccfm")
MODES = ("marginal", "pathwise")

# A set without closed forms gets one Gauss-Newton update per step; terminal
# feasibility comes from final_refine at its default budget.
_STEP_GN_ITERS = 1


@dataclass(frozen=True)
class SamplerConfig:
    """Settings shared by all sampling algorithms; not every one reads all.

    Every algorithm predicts with one Euler velocity call per step. Only
    ccfm reads mode (and scheduler, in marginal mode), and only eci reads
    eci_events, its number of noise-resampling events. n_steps, samples and
    eci_events are integers. The per-step Gauss-Newton correction and the
    final refinement take fixed budgets (see _STEP_GN_ITERS and
    final_refine).
    """

    algorithm: str = "ccfm"
    n_steps: int = 100
    scheduler: Scheduler = Scheduler(0.5)
    mode: str = "marginal"
    seed: int = 0
    samples: int = 1
    eci_events: int = 2

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("n_steps", "samples", "eci_events"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.eci_events < 0:
            raise ValueError("eci_events must be non-negative")


@dataclass
class SampleRecord:
    """One generated trajectory with its projection diagnostics.

    per_step_violation[k] is the clean-set max violation of the state after
    step k's correction, the last one taken before final refinement (zeros
    for unconstrained runs); projection_moves[k]
    is the Euclidean length of step k's correction. x0 reads states[0] and
    x1 reads states[-1], the terminal state after final refinement.
    """

    states: np.ndarray
    per_step_violation: np.ndarray
    projection_moves: np.ndarray
    wall_time: float
    refine_converged: bool = True
    final_violation: float = 0.0

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    @property
    def x1(self) -> np.ndarray:
        return self.states[-1]


def _time_grid(n_steps: int) -> np.ndarray:
    # An integer n_steps keeps every t_k = k/N in [0, 1], with t_N exactly 1.
    return np.arange(n_steps + 1) / n_steps


def _marginal_schedule(cs: ConstraintSet, cfg: SamplerConfig) -> tuple:
    """The marginal tightened sets at t_1..t_N. They depend on t alone, so a
    batch computes them once and every sample projects onto the same sets."""
    ts = _time_grid(cfg.n_steps)
    return tuple(tighten_set(cs, t, cfg.scheduler) for t in ts[1:])


def _sample(model: FlowModel, cs: ConstraintSet | None, cfg: SamplerConfig,
            sample_index: int, correct=None, extrapolate: bool = False) -> SampleRecord:
    """The sampling loop shared by all four algorithms: predict, correct, record.

    The prediction is one Euler move x + h u(x, t_k): to t_{k+1}, or, with
    extrapolate, eci's one-shot endpoint at h = 1 - t_k; after correction
    that endpoint is re-interpolated at t_{k+1} against x0, or against fresh
    noise from the sample's stream at the resampling events.
    correct(pred, x0, k) returns the corrected prediction and the length of
    its move is recorded. The clean set cs (None for vanilla) is what the
    per-step violations are measured against, in one batch call on the
    stacked states after the loop and before final refinement replaces the
    last one, and what the final refinement enforces.
    """
    started = time.perf_counter()
    rng = stream_rng(cfg.seed, sample_index)
    x0 = rng.standard_normal(model.dim)
    ts = _time_grid(cfg.n_steps)
    period = math.ceil(cfg.n_steps / cfg.eci_events) if cfg.eci_events > 0 else None
    x = x0.copy()
    states = [x0.copy()]
    moves = np.zeros(cfg.n_steps)
    for k in range(cfg.n_steps):
        t, t_next = ts[k], ts[k + 1]
        h = 1.0 - t if extrapolate else t_next - t
        x = pred = x + h * model.velocity(x, t)
        if correct is not None:
            x = correct(pred, x0, k)
            moves[k] = float(np.linalg.norm(x - pred))
        if extrapolate:
            if period is not None and (k + 1) % period == 0:
                noise = rng.standard_normal(model.dim)
            else:
                noise = x0
            x = interpolate(noise, x, t_next)
        states.append(x)

    states = np.stack(states)
    viols = np.zeros(cfg.n_steps) if cs is None else max_violation(cs, states[1:])
    converged = True
    final_viol = 0.0
    if cs is not None and cs.members:
        report = final_refine(states[-1], cs)
        states[-1] = report.x_out
        converged = report.converged
        final_viol = report.final_max_violation
    return SampleRecord(
        states=states,
        per_step_violation=viols,
        projection_moves=moves,
        wall_time=time.perf_counter() - started,
        refine_converged=converged,
        final_violation=final_viol,
    )


def sample_vanilla(model: FlowModel, cfg: SamplerConfig, sample_index: int = 0) -> SampleRecord:
    """Integrate the flow with no correction at all."""
    return _sample(model, None, cfg, sample_index)


def sample_repeated(model: FlowModel, cs: ConstraintSet, cfg: SamplerConfig,
                    sample_index: int = 0) -> SampleRecord:
    """Project every intermediate state onto the original clean set.

    The baseline the chance-constrained scheduler is measured against: it
    guarantees per-step feasibility for convex closed-form kinds but drags
    early states onto a set meant for t = 1.
    """
    return _sample(model, cs, cfg, sample_index,
                   lambda x, x0, k: project(x, cs, _STEP_GN_ITERS))


def sample_eci(model: FlowModel, cs: ConstraintSet, cfg: SamplerConfig,
               sample_index: int = 0) -> SampleRecord:
    """Extrapolate-correct-interpolate per step.

    Each step predicts the clean endpoint in one shot, xhat1 = x + (1-t) u,
    corrects it by projection onto the clean set, and re-interpolates at the
    next grid time. The interpolation endpoint is the realized x0 except at
    the configured resampling events, where fresh noise is drawn from the
    sample's own stream.
    """
    return _sample(model, cs, cfg, sample_index,
                   lambda x, x0, k: project(x, cs, _STEP_GN_ITERS), extrapolate=True)


def sample_ccfm(model: FlowModel, cs: ConstraintSet, cfg: SamplerConfig,
                sample_index: int = 0, *, _schedule: tuple | None = None) -> SampleRecord:
    """Chance-constrained sampling: step, then project onto the tightened set.

    After each step the constraints are tightened at the post-step time —
    marginal mode projects onto the quantile reformulation with satisfy
    probability phi(t) (built here for t_1..t_N; run_batch passes its
    batch-wide tuple as _schedule); pathwise mode projects onto the exact
    transported set (1-t) x0 + t C. At t = 1 the tightenings degenerate to
    the originals, and a final refinement enforces strict terminal
    feasibility.
    """
    if cfg.mode == "pathwise":
        ts = _time_grid(cfg.n_steps)
        return _sample(model, cs, cfg, sample_index,
                       lambda x, x0, k: project_decomposed(x, x0, ts[k + 1], cs, _STEP_GN_ITERS))
    schedule = _schedule if _schedule is not None else _marginal_schedule(cs, cfg)
    return _sample(model, cs, cfg, sample_index,
                   lambda x, x0, k: project(x, schedule[k], _STEP_GN_ITERS))


def _one_sample(model, cs, cfg, index: int, schedule) -> SampleRecord:
    if cfg.algorithm == "vanilla":
        return sample_vanilla(model, cfg, index)
    if cs is None:
        raise ValueError(f"algorithm {cfg.algorithm!r} requires a constraint set")
    if cfg.algorithm == "repeated":
        return sample_repeated(model, cs, cfg, index)
    if cfg.algorithm == "eci":
        return sample_eci(model, cs, cfg, index)
    return sample_ccfm(model, cs, cfg, index, _schedule=schedule)


def run_batch(model: FlowModel, cs: ConstraintSet | None, cfg: SamplerConfig,
              threads: int = 1) -> list[SampleRecord]:
    """Generate cfg.samples records, optionally across worker threads.

    Records are keyed by sample index and each index owns its RNG stream, so
    the output is identical for any thread count. Marginal ccfm tightens the
    set once per grid time for the whole batch.
    """
    schedule = None
    if cfg.algorithm == "ccfm" and cfg.mode == "marginal" and cs is not None:
        schedule = _marginal_schedule(cs, cfg)
    indices = range(cfg.samples)
    if threads <= 1:
        return [_one_sample(model, cs, cfg, i, schedule) for i in indices]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(lambda i: _one_sample(model, cs, cfg, i, schedule), indices))
