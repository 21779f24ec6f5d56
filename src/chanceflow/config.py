"""Experiment configuration: flat INI-style files.

A config names a target model, an optional list of constraint blocks, the
sampler settings, metric settings, and output names. parse_config builds
every object that does not depend on the run seed (the samplers, the model,
the constraint set and any loaded or simulated reference batch), so a bad
file fails before any sampling or file output starts: each setting is
checked by the object it configures, whose ValueError becomes a ConfigError.
build_workbench only draws the rejection reference from the seed's stream.
tol applies to mixture and empirical models only.

Sections and keys::

    [experiment]  id, seed, samples, tol
    [model]       kind = mixture | empirical | reaction_diffusion, + params
    [sampler]     algorithm (one or more), stepper, steps, scheduler_n, mode,
                  eci_events
                  (eci ignores stepper; only ccfm reads mode, only eci
                  eci_events; the Gauss-Newton budgets are fixed: see
                  SamplerConfig)
    [constraint.K] kind = halfspace | band | quadratic | min_distance, + params
                  (quadratic: (a.x)^2 <= b, read as the band |a.x| <= sqrt(b))
    [metrics]     reference (path | rejection | simulation),
                  reference_samples, n_projections
    [output]      csv, figures, figure_samples
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .chance import MARGINAL_KINDS, Scheduler
from .constraints import ConstraintSet, LinearBand, LinearIneq, MinDistance
from .errors import ConfigError
from .flow import EmpiricalTarget, FlowModel, GaussianMixtureTarget, load_matrix
from .numerics import stream_rng
from .oracles import rejection_sample
from .reaction_diffusion import RdGrid, rd_constraints, rd_dataset
from .samplers import SamplerConfig

__all__ = ["ExperimentConfig", "parse_config", "build_workbench"]

# Dedicated RNG stream ids, far above any sample index.
REFERENCE_STREAM = 2**48 + 1
DIRECTION_STREAM = 2**48 + 2

_SECTION_KEYS = {
    "experiment": {"id", "seed", "samples", "tol"},
    "model": {"kind", "means", "scales", "weights", "path", "n_s", "n_t",
              "dt_phys", "nu", "rho", "delta", "train_fields", "data_seed"},
    "sampler": {"algorithm", "stepper", "steps", "scheduler_n", "mode", "eci_events"},
    "metrics": {"reference", "reference_samples", "n_projections"},
    "output": {"csv", "figures", "figure_samples"},
}
_CONSTRAINT_KEYS = {"kind", "a", "b", "lo", "hi", "center", "radius", "coords"}
_FIGURE_KINDS = ("trajectory_2d", "violation_curve")


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector from {text!r}") from exc
    if vec.size == 0:
        raise ConfigError(f"empty vector in {text!r}")
    return vec


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(part) for part in text.split(";") if part.strip()]
    if not rows:
        raise ConfigError(f"empty matrix in {text!r}")
    if len({r.size for r in rows}) != 1:
        raise ConfigError("matrix rows have unequal lengths")
    return np.stack(rows)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config with its model and constraint set built; samplers
    holds one SamplerConfig per listed algorithm. reference is the loaded or
    simulated batch, or None until build_workbench draws it by rejection."""

    experiment_id: str
    model: FlowModel
    cs: ConstraintSet
    is_rd: bool
    samplers: tuple
    reference: np.ndarray | None
    reference_samples: int
    n_projections: int
    csv_name: str
    figures: tuple
    figure_samples: int


class _Section:
    """One config section with typed getters and leftover-key detection."""

    def __init__(self, name: str, mapping, allowed):
        self.name = name
        self.mapping = dict(mapping)
        unknown = set(self.mapping) - allowed
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")

    def get(self, key: str, default=None, required: bool = False) -> str | None:
        if key in self.mapping:
            return self.mapping[key]
        if required:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return default

    def get_typed(self, key: str, cast, default=None, required: bool = False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{self.name}] {key} = {raw!r}: {exc}") from exc

    def get_name(self, key: str, default=None) -> str:
        name = self.get(key, default=default, required=default is None)
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ConfigError(f"[{self.name}] {key} = {name!r} is not a plain file name")
        return name

    def get_count(self, key: str, default: int) -> int:
        value = self.get_typed(key, int, default=default)
        if value < 1:
            raise ConfigError(f"[{self.name}] {key} must be at least 1, got {value}")
        return value


def _build_constraint(section: _Section):
    kind = section.get("kind", required=True)
    if kind == "halfspace":
        return LinearIneq(_parse_vector(section.get("a", required=True)),
                          section.get_typed("b", float, required=True))
    if kind == "band":
        return LinearBand(_parse_vector(section.get("a", required=True)),
                          section.get_typed("lo", float, required=True),
                          section.get_typed("hi", float, required=True))
    if kind == "quadratic":
        b = section.get_typed("b", float, required=True)
        if not b > 0.0:
            raise ConfigError(f"[{section.name}] quadratic bound must be positive, got {b}")
        root = math.sqrt(b)
        return LinearBand(_parse_vector(section.get("a", required=True)), -root, root)
    if kind == "min_distance":
        coords = section.get("coords")
        subset = tuple(int(tok) for tok in coords.split()) if coords else None
        return MinDistance(_parse_vector(section.get("center", required=True)),
                           section.get_typed("radius", float, required=True),
                           coord_subset=subset)
    raise ConfigError(f"unknown constraint kind {kind!r} in [{section.name}]")


def _load(path: str, base_dir: str, what: str) -> np.ndarray:
    try:
        return load_matrix(os.path.join(base_dir, path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load {what}: {exc}") from exc


def _model(section: _Section, kind: str, base_dir: str):
    """The target, with reaction_diffusion's own constraint set and held-out
    reference field (None for the other kinds)."""
    if kind == "mixture":
        means = _parse_matrix(section.get("means", required=True))
        scales = _parse_vector(section.get("scales", required=True))
        weights = section.get("weights")
        return GaussianMixtureTarget(means, scales if scales.size > 1 else float(scales[0]),
                                     _parse_vector(weights) if weights else None), None, None
    if kind == "empirical":
        return EmpiricalTarget(_load(section.get("path", required=True), base_dir,
                                     "atoms")), None, None
    if kind == "reaction_diffusion":
        grid = RdGrid(n_s=section.get_typed("n_s", int, default=32),
                      n_t=section.get_typed("n_t", int, default=20),
                      dt_phys=section.get_typed("dt_phys", float, default=0.25))
        fields, problems = rd_dataset(
            grid, section.get_count("train_fields", 12) + 1,
            section.get_typed("data_seed", int, default=0),
            nu=section.get_typed("nu", float, default=0.005),
            rho=section.get_typed("rho", float, default=0.01),
            delta=section.get_typed("delta", float, default=1e-10))
        # Problem 0 is held out: its constraints define the task and its
        # solution is the reference; the target only sees the other fields.
        return EmpiricalTarget(fields[1:]), rd_constraints(problems[0]), fields[:1]
    raise ConfigError(f"unknown model kind {kind!r}")


def _sampler_configs(section: _Section, exp: _Section) -> tuple:
    """One SamplerConfig per listed algorithm; the sampler objects check
    every value."""
    algorithms = section.get("algorithm", default="ccfm").split()
    if not algorithms or len(set(algorithms)) < len(algorithms):
        raise ConfigError("[sampler] algorithm must list one or more distinct algorithms")
    first = SamplerConfig(
        algorithm=algorithms[0],
        stepper=section.get("stepper", default="euler"),
        n_steps=section.get_typed("steps", int, default=100),
        scheduler=Scheduler(section.get_typed("scheduler_n", float, default=0.5)),
        mode=section.get("mode", default="marginal"),
        seed=exp.get_typed("seed", int, default=0),
        samples=exp.get_typed("samples", int, default=100),
        eci_events=section.get_typed("eci_events", int, default=2),
    )
    return tuple(replace(first, algorithm=alg) for alg in algorithms)


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file. Any problem raises ConfigError."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    sections = {}
    constraint_sections = []
    for name in parser.sections():
        if name.startswith("constraint."):
            constraint_sections.append(
                _Section(name, parser[name], _CONSTRAINT_KEYS))
        elif name in _SECTION_KEYS:
            sections[name] = _Section(name, parser[name], _SECTION_KEYS[name])
        else:
            raise ConfigError(f"unknown section [{name}]")
    for required in ("experiment", "model", "sampler"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    exp = sections["experiment"]
    metrics = sections.get("metrics", _Section("metrics", {}, _SECTION_KEYS["metrics"]))
    output = sections.get("output", _Section("output", {}, _SECTION_KEYS["output"]))

    kind = sections["model"].get("kind", required=True)
    is_rd = kind == "reaction_diffusion"
    if is_rd and (constraint_sections or exp.get("tol") is not None):
        raise ConfigError("reaction_diffusion builds its own constraints with tolerance "
                          "delta; remove [experiment] tol and the [constraint.*] blocks")
    ref_name = metrics.get("reference", default="simulation" if is_rd else "rejection")
    if is_rd and ref_name != "simulation":
        raise ConfigError("reaction_diffusion supports only reference = simulation")
    if ref_name == "simulation" and not is_rd:
        raise ConfigError("reference = simulation requires a reaction_diffusion model")
    figures = tuple(output.get("figures", default="").split())
    for fig in figures:
        if fig not in _FIGURE_KINDS:
            raise ConfigError(f"unknown figure kind {fig!r}")

    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        samplers = _sampler_configs(sections["sampler"], exp)
        target, cs, reference = _model(sections["model"], kind, base_dir)
        if cs is None:
            cs = ConstraintSet(tuple(_build_constraint(s) for s in constraint_sections),
                               tol=exp.get_typed("tol", float, default=1e-8))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = FlowModel(target)
    if cs.dim is not None and cs.dim != model.dim:
        raise ConfigError(f"constraint dimension {cs.dim} != model dimension {model.dim}")
    for member in cs.members:
        subset = getattr(member, "coord_subset", None)
        if subset is not None and max(subset) >= model.dim:
            coords = " ".join(map(str, subset))
            raise ConfigError(f"min_distance coords {coords} reach past "
                              f"model dimension {model.dim}")
    if "trajectory_2d" in figures and model.dim != 2:
        raise ConfigError(f"trajectory_2d figures need a 2-D model, got dimension {model.dim}")
    for scfg in samplers:
        if scfg.algorithm == "ccfm" and scfg.mode == "marginal" and not all(
                isinstance(c, MARGINAL_KINDS) for c in cs.members):
            raise ConfigError("marginal ccfm tightens only halfspace, band and quadratic "
                              "constraints; set [sampler] mode = pathwise")
        if scfg.algorithm != "vanilla" and not cs.members:
            raise ConfigError(f"algorithm {scfg.algorithm!r} needs at least one "
                              "[constraint.*] block")
    if ref_name not in ("rejection", "simulation"):
        reference = _load(ref_name, base_dir, "reference batch")
        if reference.shape[1] != model.dim:
            raise ConfigError(
                f"reference dimension {reference.shape[1]} != model dimension {model.dim}")

    return ExperimentConfig(
        experiment_id=exp.get_name("id"),
        model=model,
        cs=cs,
        is_rd=is_rd,
        samplers=samplers,
        reference=reference,
        reference_samples=metrics.get_count("reference_samples", 512),
        n_projections=metrics.get_count("n_projections", 128),
        csv_name=output.get_name("csv", default="results.csv"),
        figures=figures,
        figure_samples=output.get_count("figure_samples", 8),
    )


def build_workbench(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """The config with its reference batch: drawn by rejection from the
    seed's stream when parse_config left it None."""
    if cfg.reference is not None:
        return cfg
    return replace(cfg, reference=rejection_sample(cfg.model.target, cfg.cs,
                                                   cfg.reference_samples,
                                                   stream_rng(seed, REFERENCE_STREAM)))
