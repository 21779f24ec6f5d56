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
from dataclasses import dataclass

import numpy as np

from .config import (DIRECTION_STREAM, ExperimentConfig, Workbench,
                     build_workbench, make_sampler_config, parse_config)
from .constraints import max_violation
from .errors import ConfigError, NumericalError, OracleFailure
from .figures import emit_figure
from .numerics import stream_rng
from .oracles import sliced_w2
from .reaction_diffusion import rd_violation_split
from .samplers import run_batch

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


def _result_row(cfg: ExperimentConfig, bench: Workbench, algorithm: str,
                seed: int, records) -> ResultRow:
    finals = np.stack([r.x1 for r in records])
    ref = bench.reference
    feasible = sum(1 for r in records
                   if max_violation(bench.cs, r.x1) <= bench.cs.tol)
    sw2 = None
    if finals.shape[0] >= 2 and ref.shape[0] >= 2:
        sw2 = sliced_w2(finals, ref, n_projections=cfg.n_projections,
                        rng=stream_rng(seed, DIRECTION_STREAM))
    mmse = float(np.mean((finals.mean(axis=0) - ref.mean(axis=0)) ** 2))
    smse = (float(np.mean((finals.std(axis=0) - ref.std(axis=0)) ** 2))
            if finals.shape[0] >= 2 else None)
    cv_ic = cv_cl = None
    if bench.is_rd:
        cv_ic, cv_cl = rd_violation_split(finals, bench.cs)
    return ResultRow(
        experiment=cfg.experiment_id,
        algorithm=algorithm,
        steps=cfg.sampler["n_steps"],
        scheduler_n=cfg.sampler["scheduler_n"],
        seed=seed,
        feasibility_rate=feasible / len(records),
        sliced_w2=sw2,
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
    try:
        cfg = parse_config(cfg_path)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    eff_seed = cfg.seed if seed is None else int(seed)
    try:
        bench = build_workbench(cfg, eff_seed)
        infeasible = 0
        rows = []
        batches = {}
        for algorithm in cfg.algorithms:
            scfg = make_sampler_config(cfg, algorithm, eff_seed)
            records = run_batch(bench.model, bench.cs, scfg, threads=threads)
            batches[algorithm] = records
            log.info("%s: %d samples, total sampling time %.3fs", algorithm,
                     len(records), sum(r.wall_time for r in records))
            if algorithm != "vanilla":
                for i, r in enumerate(records):
                    if not r.refine_converged or r.final_violation > bench.cs.tol:
                        log.error("%s sample %d infeasible after final refinement "
                                  "(max violation %.3e)", algorithm, i, r.final_violation)
                        infeasible += 1
            rows.append(_result_row(cfg, bench, algorithm, eff_seed, records))
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
                       help="worker threads for sample generation")
    sub.add_parser("verify", help="run the self-check oracle battery")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, seed=args.seed,
                              out_dir=args.out_dir, threads=args.threads)
    from .selfcheck import run_all
    return run_all()


if __name__ == "__main__":
    sys.exit(main())
