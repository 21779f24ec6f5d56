"""Command-line experiment runner.

``chanceflow run <config>`` executes a config file and writes a CSV of result
rows (plus optional SVG figures); ``chanceflow verify`` runs the built-in
oracle battery. Exit codes: 0 success, 2 configuration error, 3 numerical
failure. Log verbosity comes from the CHANCEFLOW_LOG environment variable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import DIRECTION_STREAM, ExperimentConfig, build_workbench, parse_config
# max_violation and sliced_w2 are reached through feasibility_report; they
# stay importable here because perfbench/spans.py hooks them at this site.
from .constraints import max_violation  # noqa: F401
from .errors import ConfigError, NumericalError, OracleFailure
from .figures import emit_figure
from .numerics import stream_rng
from .oracles import feasibility_report, moment_errors, sliced_w2  # noqa: F401
from .reaction_diffusion import rd_violation_split
from .samplers import SamplerConfig, run_batch

__all__ = ["ResultRow", "CSV_HEADER", "run_experiment", "main"]

log = logging.getLogger("chanceflow")

CSV_HEADER = ("experiment", "algorithm", "steps", "scheduler_n", "seed",
              "feasibility_rate", "sliced_w2", "mmse", "smse", "cv_ic",
              "cv_cl", "wall_time")


@dataclass(frozen=True)
class ResultRow:
    """One CSV line: identification columns plus batch metrics.

    Metrics that do not apply (std error with one sample, CV columns outside
    the reaction-diffusion benchmark) are None and render as empty cells.
    wall_time is always left empty in the CSV so that output is byte-identical
    across machines and thread counts; measured times go to the log instead.
    """

    experiment: str
    algorithm: str
    steps: int
    scheduler_n: float
    seed: int
    feasibility_rate: float
    sliced_w2: float | None
    mmse: float | None
    smse: float | None
    cv_ic: float | None
    cv_cl: float | None
    wall_time: float | None = None

    def render(self) -> str:
        cells = [_format_cell(getattr(self, name)) for name in CSV_HEADER]
        return ",".join(cells)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _result_row(cfg: ExperimentConfig, scfg: SamplerConfig, records) -> ResultRow:
    finals = np.stack([r.x1 for r in records])
    report = feasibility_report(records, cfg.cs, cfg.reference,
                                n_projections=cfg.n_projections,
                                rng=stream_rng(scfg.seed, DIRECTION_STREAM))
    mmse, smse = moment_errors(finals, cfg.reference)
    cv_ic = cv_cl = None
    if cfg.is_rd:
        cv_ic, cv_cl = rd_violation_split(finals, cfg.cs)
    return ResultRow(
        experiment=cfg.experiment_id,
        algorithm=scfg.algorithm,
        steps=scfg.n_steps,
        scheduler_n=scfg.scheduler.n,
        seed=scfg.seed,
        feasibility_rate=report.feasibility_rate,
        sliced_w2=report.sliced_w2,
        mmse=mmse,
        smse=smse,
        cv_ic=cv_ic,
        cv_cl=cv_cl,
    )


def _write_csv(rows, path: str) -> None:
    text = "\n".join([",".join(CSV_HEADER)] + [row.render() for row in rows]) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_experiment(cfg_path, seed: int | None = None, out_dir: str = ".",
                   threads: int = 1) -> int:
    """Execute one config end to end; returns the process exit code."""
    if threads < 1:
        log.error("config error: threads must be at least 1, got %d", threads)
        return 2
    try:
        cfg = parse_config(cfg_path)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    seed = cfg.samplers[0].seed if seed is None else int(seed)
    try:
        cfg = build_workbench(cfg, seed)
        infeasible = 0
        rows = []
        batches = {}
        for scfg in cfg.samplers:
            scfg = replace(scfg, seed=seed)
            records = run_batch(cfg.model, cfg.cs, scfg, threads=threads)
            batches[scfg.algorithm] = records
            log.info("%s: %d samples, total sampling time %.3fs", scfg.algorithm,
                     len(records), sum(r.wall_time for r in records))
            if scfg.algorithm != "vanilla":
                for i, r in enumerate(records):
                    if not r.refine_converged or r.final_violation > cfg.cs.tol:
                        log.error("%s sample %d infeasible after final refinement "
                                  "(max violation %.3e)", scfg.algorithm, i, r.final_violation)
                        infeasible += 1
            rows.append(_result_row(cfg, scfg, records))
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(rows, os.path.join(out_dir, cfg.csv_name))
        for kind in cfg.figures:
            for algorithm, records in batches.items():
                name = f"{cfg.experiment_id}_{algorithm}_{kind}.svg"
                emit_figure(records[: cfg.figure_samples], kind,
                            os.path.join(out_dir, name))
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except (NumericalError, OracleFailure) as exc:
        log.error("numerical failure: %s", exc)
        return 3
    if infeasible:
        log.error("%d samples remained infeasible", infeasible)
        return 3
    return 0


def _setup_logging() -> None:
    name = os.environ.get("CHANCEFLOW_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="chanceflow",
        description="Constrained flow-matching sampling experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a config file")
    run_p.add_argument("config", help="path to an INI-style experiment config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out-dir", default=".",
                       help="directory for CSV and figure output")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sample generation (at least 1)")
    sub.add_parser("verify", help="run the self-check oracle battery")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, seed=args.seed,
                              out_dir=args.out_dir, threads=args.threads)
    from .selfcheck import run_all
    return run_all()


if __name__ == "__main__":
    sys.exit(main())
