"""Spans and counters taken from outside the chanceflow package.

The package is not edited: every layer boundary is observed by replacing a
public name, at the place where the caller looks it up, with a wrapper that
opens a span around the call. ``samplers`` imports ``tighten_set``,
``project_pocs`` and friends by name, so the names are replaced in the
``samplers`` namespace; ``project_decomposed`` and ``final_refine`` reach
``gauss_newton_project`` through the ``projection`` globals; methods such as
``FlowModel.velocity`` are replaced on their class. ``installed`` restores
every replaced attribute on exit.

A hook whose target no longer exists is skipped and recorded in
``Tracer.missing``; the metrics fed only by missing hooks are reported as
None instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    """One timed call. parent is the id of the enclosing span (None at the
    top); sample is the sample index the call works on, inherited from the
    enclosing span when the call itself does not name one."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    sample: int | None


class Tracer:
    """Thread-safe span recorder with one open-span stack per thread.

    A span opened on a thread whose stack is empty takes as parent the
    innermost open span that was opened with ``adopt=True`` (the batch span
    around a thread pool), so per-sample spans on worker threads still hang
    under their batch.
    """

    def __init__(self, run: str = "run"):
        self.run = run
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopters: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, sample: int | None = None, adopt: bool = False):
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else (self._adopters[-1] if self._adopters else None)
            span = Span(next(self._ids), name, 0.0, 0.0,
                        parent.id if parent else None, self.run,
                        threading.get_ident(),
                        sample if sample is not None else (parent.sample if parent else None))
            if adopt:
                self._adopters.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if adopt:
                    self._adopters.remove(span)
                self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals (children may run in
    parallel on other threads)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
    return out


# --------------------------------------------------------------------------
# Hooks: (span name, lookup sites, observer of the call's result)

def _observe_report(prefix: str, iters_key: str):
    def observe(tracer, args, kwargs, result):
        tracer.count(f"{prefix}.{iters_key}", result.iterations)
        tracer.count(f"{prefix}.unconverged", 0.0 if result.converged else 1.0)
    return observe


def _observe_tighten(tracer, args, kwargs, result):
    faces = getattr(result, "members", result)
    active = sum(1 for f in faces if getattr(f, "kind", "active") != "inactive")
    tracer.count("chance.tighten_set.faces", len(faces))
    tracer.count("chance.tighten_set.active", active)


def _observe_decomposed(tracer, args, kwargs, result):
    x = kwargs["x"] if "x" in kwargs else args[0]
    tracer.count("projection.project_decomposed.checked")
    tracer.count("projection.project_decomposed.noop",
                 1.0 if np.array_equal(result, x) else 0.0)


def _observe_batch(tracer, args, kwargs, result):
    cs = kwargs["cs"] if "cs" in kwargs else args[1]
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    tracer.count("samplers.samples", len(result))
    tracer.count("samplers.states_bytes", sum(r.states.nbytes for r in result))
    if cfg.algorithm != "vanilla":
        # The CLI's own feasibility rule for a constrained row.
        tracer.count("samplers.failed",
                     sum(1 for r in result
                         if not r.refine_converged or r.final_violation > cs.tol))
        tracer.count("projection.moves", sum(r.projection_moves.size for r in result))
        tracer.count("projection.moved",
                     sum(int(np.count_nonzero(r.projection_moves)) for r in result))


def _observe_draws(tracer, args, kwargs, result):
    tracer.count("oracles.rejection_sample.drawn", len(result))


def _observe_rejection(tracer, args, kwargs, result):
    tracer.count("oracles.rejection_sample.kept", len(result))


@dataclass(frozen=True)
class Hook:
    name: str
    sites: tuple          # "module:attr" or "module:Class.attr"
    observe: object = None
    adopt: bool = False
    sample_arg: int | None = None   # positional index of the sample index


_SAMPLE_FNS = ("vanilla", "repeated", "eci", "ccfm")

# Hooks for the end-to-end (untraced) runs: one call each per algorithm or
# per run, so they cost nothing measurable.
LIGHT_HOOKS = (
    Hook("config.parse_config", ("chanceflow.cli:parse_config",)),
    Hook("config.build_workbench", ("chanceflow.cli:build_workbench",)),
    Hook("samplers.run_batch", ("chanceflow.cli:run_batch",), _observe_batch, adopt=True),
)

LAYER_HOOKS = LIGHT_HOOKS + (
    Hook("flow.velocity", ("chanceflow.flow:FlowModel.velocity",)),
    Hook("chance.tighten_set", ("chanceflow.samplers:tighten_set",), _observe_tighten),
    Hook("constraints.face_values", ("chanceflow.constraints:ConstraintSet.face_values",)),
    Hook("constraints.max_violation", ("chanceflow.samplers:max_violation",
                                       "chanceflow.cli:max_violation")),
    Hook("projection.closed_form", ("chanceflow.constraints:LinearIneq.project",
                                    "chanceflow.constraints:LinearBand.project",
                                    "chanceflow.chance:TightenedConstraint.project")),
    Hook("projection.project_pocs", ("chanceflow.samplers:project_pocs",
                                     "chanceflow.projection:project_pocs"),
         _observe_report("projection.project_pocs", "cycles")),
    Hook("projection.gauss_newton_project", ("chanceflow.samplers:gauss_newton_project",
                                             "chanceflow.projection:gauss_newton_project"),
         _observe_report("projection.gauss_newton_project", "iters")),
    Hook("projection.project_decomposed", ("chanceflow.samplers:project_decomposed",),
         _observe_decomposed),
    Hook("projection.final_refine", ("chanceflow.samplers:final_refine",),
         _observe_report("projection.final_refine", "iters")),
    Hook("numerics.solve_spd", ("chanceflow.projection:solve_spd",)),
    Hook("reaction_diffusion.rd_dataset", ("chanceflow.config:rd_dataset",)),
    Hook("reaction_diffusion.rd_constraints", ("chanceflow.config:rd_constraints",)),
    Hook("oracles.rejection_sample", ("chanceflow.config:rejection_sample",),
         _observe_rejection),
    Hook("oracles.sample_target", ("chanceflow.oracles:sample_target",), _observe_draws),
    Hook("oracles.sliced_w2", ("chanceflow.cli:sliced_w2",)),
    Hook("figures.emit_figure", ("chanceflow.cli:emit_figure",)),
) + tuple(Hook(f"samplers.sample.{alg}", (f"chanceflow.samplers:sample_{alg}",),
               sample_arg=2 if alg == "vanilla" else 3)
          for alg in _SAMPLE_FNS)


def _resolve(site: str):
    """(owner object, attribute name, current value) of a lookup site; raises
    AttributeError or ImportError when it no longer exists."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, hook: Hook, fn):
    def wrapper(*args, **kwargs):
        sample = None
        if hook.sample_arg is not None:
            sample = kwargs.get("sample_index",
                                args[hook.sample_arg] if len(args) > hook.sample_arg else 0)
        with tracer.span(hook.name, sample=sample, adopt=hook.adopt):
            result = fn(*args, **kwargs)
        if hook.observe is not None:
            hook.observe(tracer, args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=LAYER_HOOKS):
    """Replace every hook site with a span-recording wrapper for the duration
    of the block, then put every original back."""
    saved = []   # (owner, attr, original, was in owner.__dict__)
    wrappers: dict[tuple, object] = {}
    try:
        for hook in hooks:
            for site in hook.sites:
                try:
                    owner, attr, original = _resolve(site)
                except (ImportError, AttributeError):
                    tracer.missing.add(site)
                    continue
                key = (id(original), hook.name)
                if key not in wrappers:
                    wrappers[key] = _wrap(tracer, hook, original)
                saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrappers[key])
        yield tracer
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def hook_missing(missing_sites, hook_name: str) -> bool:
    """True when every lookup site of the named hook was missing at install
    time (or no hook has that name)."""
    for hook in LAYER_HOOKS:
        if hook.name == hook_name:
            return all(site in missing_sites for site in hook.sites)
    return True
