"""Benchmark of the chanceflow package, driven from outside through
``cli.run_experiment``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rd640 [--seed N] [--seconds S] [--trace 0|1]

Each measured repeat is one ``run_experiment(config, seed, out_dir, threads)``
call in a fresh child process (``child.py``). Untraced runs (``--trace 0``)
repeat it until ``--seconds`` are used (at least twice) and report the
end-to-end times of the slowest repeat. Traced runs (``--trace 1``)
alternate an untraced and a traced repeat and report the per-layer metrics
and the tracing overhead. Either way the correctness gate runs on every CSV
written; a failed check is printed and the exit code is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable report goes
to standard error. Everything the run wrote (CSVs, figures, child results,
spans, and ``summary.json`` with the seed and the CSV) stays under
``perfbench/.work/<workload>-trace<0|1>/`` until the next such run. See
``perfbench/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170      # every child must end within this of the start
MIN_REPEATS = 2
MAX_REPEATS = 64
MIN_SETUPS = 3         # warm set-ups timed after each repeat, at least
SETUP_BUDGET_S = 0.5   # and more while they fit in this many seconds


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # relative to the checkout root
    threads: int                # thread count of the timed and traced repeats
    why: str
    samples: int | None = None  # overrides [experiment] samples when set
    # Thread count of one untimed run whose CSV must equal the timed ones.
    check_threads: int | None = None


WORKLOADS = {w.name: w for w in (
    Workload("rd640", "configs/rd_ccfm.cfg", 1,
             "shipped reaction-diffusion config (d = 640, pathwise): "
             "Gauss-Newton on 38 mass faces, trajectory memory, costly set-up",
             samples=12),
    # Timed at 1 thread: run on both vCPUs of a shared 2-vCPU machine, the
    # 2-thread run's time spread over seeds is about twice the 1-thread one's
    # and exceeds the 0.25 bound, so the thread pool is checked, not timed.
    Workload("mix8_threads", "perfbench/configs/mix8_threads.cfg", 1,
             "8-D mixture, three constraint kinds, all four algorithms: velocity-bound, "
             "chance tightening, Dykstra, Gauss-Newton, eci; checks a 2-thread run's CSV",
             check_threads=2),
)}


# ---------------------------------------------------------------------------
# Metric tables: (name, unit, better) as in BENCHMARK.json, and where each
# per-layer value is read from.

END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("feasibility_rate", "ratio", "higher"),
)

_SPAN_METRICS = (  # (metric, span name, summary key)
    ("flow.velocity.calls", "flow.velocity", "calls"),
    ("flow.velocity.self_s", "flow.velocity", "self_s"),
    ("chance.tighten_set.calls", "chance.tighten_set", "calls"),
    ("chance.tighten_set.self_s", "chance.tighten_set", "self_s"),
    ("constraints.face_values.calls", "constraints.face_values", "calls"),
    ("constraints.face_values.self_s", "constraints.face_values", "self_s"),
    ("constraints.max_violation.calls", "constraints.max_violation", "calls"),
    ("constraints.max_violation.self_s", "constraints.max_violation", "self_s"),
    ("projection.closed_form.calls", "projection.closed_form", "calls"),
    ("projection.closed_form.self_s", "projection.closed_form", "self_s"),
    ("projection.project_pocs.calls", "projection.project_pocs", "calls"),
    ("projection.project_pocs.self_s", "projection.project_pocs", "self_s"),
    ("projection.gauss_newton_project.calls", "projection.gauss_newton_project", "calls"),
    ("projection.gauss_newton_project.self_s", "projection.gauss_newton_project", "self_s"),
    ("projection.project_decomposed.calls", "projection.project_decomposed", "calls"),
    ("projection.project_decomposed.self_s", "projection.project_decomposed", "self_s"),
    ("projection.final_refine.calls", "projection.final_refine", "calls"),
    ("projection.final_refine.self_s", "projection.final_refine", "self_s"),
    ("numerics.solve_spd.calls", "numerics.solve_spd", "calls"),
    ("numerics.solve_spd.self_s", "numerics.solve_spd", "self_s"),
    ("samplers.run_batch.s", "samplers.run_batch", "s"),
    ("samplers.sample.ccfm.s", "samplers.sample.ccfm", "s"),
    ("samplers.sample.repeated.s", "samplers.sample.repeated", "s"),
    ("samplers.sample.eci.s", "samplers.sample.eci", "s"),
    ("samplers.sample.vanilla.s", "samplers.sample.vanilla", "s"),
    ("config.build_workbench.s", "config.build_workbench", "s"),
    ("reaction_diffusion.rd_dataset.s", "reaction_diffusion.rd_dataset", "s"),
    ("reaction_diffusion.rd_constraints.s", "reaction_diffusion.rd_constraints", "s"),
    ("oracles.rejection_sample.s", "oracles.rejection_sample", "s"),
    ("oracles.sliced_w2.s", "oracles.sliced_w2", "s"),
    ("figures.emit_figure.s", "figures.emit_figure", "s"),
    ("cli.self_s", "cli.run_experiment", "self_s"),
)

_COUNTER_METRICS = (  # (metric, numerator counter, denominator counter or None, hook)
    ("chance.tighten_set.active_frac", "chance.tighten_set.active",
     "chance.tighten_set.faces", "chance.tighten_set"),
    ("projection.project_pocs.cycles", "projection.project_pocs.cycles", None,
     "projection.project_pocs"),
    ("projection.project_pocs.unconverged", "projection.project_pocs.unconverged", None,
     "projection.project_pocs"),
    ("projection.gauss_newton_project.iters", "projection.gauss_newton_project.iters", None,
     "projection.gauss_newton_project"),
    ("projection.gauss_newton_project.unconverged",
     "projection.gauss_newton_project.unconverged", None, "projection.gauss_newton_project"),
    ("projection.project_decomposed.noop_frac", "projection.project_decomposed.noop",
     "projection.project_decomposed.checked", "projection.project_decomposed"),
    ("projection.final_refine.iters", "projection.final_refine.iters", None,
     "projection.final_refine"),
    ("projection.final_refine.unconverged", "projection.final_refine.unconverged", None,
     "projection.final_refine"),
    ("projection.moved_frac", "projection.moved", "projection.moves", "samplers.run_batch"),
    ("oracles.rejection_sample.accept_ratio", "oracles.rejection_sample.kept",
     "oracles.rejection_sample.drawn", "oracles.sample_target"),
)

PER_LAYER = tuple(
    [(m, "count" if key == "calls" else "s", "lower") for m, _, key in _SPAN_METRICS]
    + [("samplers.self_s", "s", "lower"), ("samplers.states_mb", "MB", "lower")]
    + [(m, "ratio" if den else "count",
        "higher" if m.endswith(("noop_frac", "accept_ratio")) else "lower")
       for m, _, den, _ in _COUNTER_METRICS]
    + [("trace.overhead_s", "s", "lower")]
)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(child: dict) -> dict:
    """Per-layer metrics of one traced child; None where every hook feeding a
    metric was missing."""
    summary, counters = child["summary"], child["counters"]
    missing = set(child["missing"])

    def gone(hook):
        return spans.hook_missing(missing, hook)

    out = {}
    for metric, name, key in _SPAN_METRICS:
        gone_hook = name != "cli.run_experiment" and gone(name)
        out[metric] = None if gone_hook else summary.get(name, {}).get(key, 0)
    for metric, num, den, hook in _COUNTER_METRICS:
        if gone(hook):
            out[metric] = None
        elif den is None:
            out[metric] = counters.get(num, 0.0)
        else:
            base = counters.get(den, 0.0)
            out[metric] = counters.get(num, 0.0) / base if base else 0.0
    sample_names = [f"samplers.sample.{alg}" for alg in ("ccfm", "repeated", "eci", "vanilla")]
    out["samplers.self_s"] = (None if gone("samplers.run_batch") else
                              sum(summary.get(n, {}).get("self_s", 0.0)
                                  for n in ["samplers.run_batch"] + sample_names))
    out["samplers.states_mb"] = (None if gone("samplers.run_batch") else
                                 counters.get("samplers.states_bytes", 0.0) / 1e6)
    return out


# ---------------------------------------------------------------------------
# Correctness gate


def read_rows(text: str) -> dict:
    """CSV rows keyed by algorithm."""
    return {row["algorithm"]: row for row in csv.DictReader(io.StringIO(text))}


def gate_failures(workload: Workload, children, csvs, delta: float | None,
                  check_csv: str | None = None) -> list[str]:
    """Every failed check, as one line each; empty when the run is correct.

    children are the (label, child result) pairs; csvs is a list of
    (label, text) of every CSV written by a timed or traced repeat, the
    first being the reference for byte identity; check_csv is the CSV of the
    untimed run at the workload's check_threads.
    """
    failures = []
    for label, child in children:
        if child is None:
            failures.append(f"{label}: child process failed")
        elif child["exit_code"] != 0:
            failures.append(f"{label}: run_experiment exit code {child['exit_code']}")
    if not csvs:
        return failures + ["no CSV was written"]
    first_label, first = csvs[0]
    rows = read_rows(first)
    for alg, row in rows.items():
        if alg != "vanilla" and float(row["feasibility_rate"] or "nan") != 1.0:
            failures.append(f"{first_label}: {alg} feasibility_rate "
                            f"{row['feasibility_rate']!r} != 1.0")
    if delta is not None:
        for alg, row in rows.items():
            for col in ("cv_ic", "cv_cl"):
                value = float(row[col] or "nan")
                if not value <= delta:
                    failures.append(f"{first_label}: {alg} {col} {row[col]!r} > delta {delta!r}")
    for label, text in csvs[1:]:
        if text != first:
            failures.append(f"{label}: CSV differs from {first_label}")
    if workload.check_threads and check_csv != first:
        failures.append(f"{workload.check_threads}-thread CSV differs from the "
                        f"{workload.threads}-thread {first_label}")
    return failures


# ---------------------------------------------------------------------------
# Running


def prepare_config(workload: Workload, work: str) -> tuple[str, configparser.ConfigParser]:
    """Config path for the children, with the workload's sample override
    written to a copy in the work directory."""
    path = os.path.join(ROOT, workload.config)
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    if workload.samples is not None:
        parser["experiment"]["samples"] = str(workload.samples)
        path = os.path.join(work, os.path.basename(workload.config))
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
    return path, parser


def run_child(request: dict, work: str, label: str, timeout: float) -> dict | None:
    """Run child.py on one request; its result, or None if it crashed or ran
    past the timeout (the child is killed and reaped)."""
    out_dir = os.path.join(work, label)
    os.makedirs(out_dir)
    request = dict(request, out_dir=out_dir, run_id=label,
                   result=os.path.join(out_dir, "result.json"),
                   spans=os.path.join(out_dir, "spans.csv"))
    req_path = os.path.join(out_dir, "request.json")
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), req_path],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{label}: child killed after {timeout:.0f}s\n")
        return None
    if proc.returncode != 0 or not os.path.isfile(request["result"]):
        sys.stderr.write(f"{label}: child exited {proc.returncode}\n{proc.stdout}")
        return None
    with open(request["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _csv_text(work: str, label: str, csv_name: str) -> str | None:
    path = os.path.join(work, label, csv_name)
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def end_to_end_metrics(children, rows) -> dict:
    """Metrics of the timed repeats; None where a hook was missing.

    The times are those of the slowest repeat, not medians: the shared
    machine's speed is at its usual level or, in spells of milliseconds to
    over a minute, up to twice as fast. Fast spells only ever shorten a
    repeat, so the slowest repeat of a run is the one they helped least, and
    it moves far less from run to run than the median or the mean, which
    follow how much of the run fell in fast spells.
    """
    ok = [c for c in children if c is not None]

    def rate(c):
        return c["counters"].get("samplers.samples", 0.0) / c["batch_s"] if c["batch_s"] else None

    rates = [r for r in map(rate, ok) if r is not None]
    constrained = [float(r["feasibility_rate"]) for a, r in rows.items() if a != "vanilla"]
    return {
        "run_s": max(c["run_s"] for c in ok) if ok else None,
        "setup_s": _median([s for c in ok for s in c["setup_s"]]),
        "samples_per_s": min(rates) if rates else None,
        "peak_rss_mb": _median([c["rss_mb"] for c in ok]),
        "feasibility_rate": min(constrained) if constrained else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's seed)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="time budget for the measured repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    needed = [os.path.join(ROOT, "src", "chanceflow", "cli.py"),
              os.path.join(ROOT, workload.config)]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        sys.stderr.write(f"error: not a chanceflow checkout, missing {absent}\n")
        return 2

    work = os.path.join(HERE, ".work", f"{workload.name}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path, cfg = prepare_config(workload, work)
    seed = cfg.getint("experiment", "seed", fallback=0) if args.seed is None else args.seed
    per_child = (cfg.getint("experiment", "samples", fallback=100)
                 * len(cfg.get("sampler", "algorithm", fallback="ccfm").split()))
    csv_name = cfg.get("output", "csv", fallback="results.csv")
    delta = (cfg.getfloat("model", "delta", fallback=1e-10)
             if cfg.get("model", "kind") == "reaction_diffusion" else None)
    request = {"root": ROOT, "config": cfg_path, "seed": seed,
               "threads": workload.threads, "trace": False,
               "min_setups": MIN_SETUPS, "setup_budget_s": SETUP_BUDGET_S}

    timed, traced = [], []
    started = time.perf_counter()

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))

    # The untimed run at the check thread count goes first, so it also serves
    # as the warm-up (file cache, first imports) before the timed repeats.
    check_csv = None
    if workload.check_threads:
        label = f"threads{workload.check_threads}"
        run_child(dict(request, threads=workload.check_threads, min_setups=0), work, label,
                  remaining())
        check_csv = _csv_text(work, label, csv_name)
    loop_started = time.perf_counter()
    budget = max(1.0, args.seconds - (loop_started - started))

    while True:
        i = len(timed)
        timed.append((f"rep{i}", run_child(request, work, f"rep{i}", remaining())))
        if args.trace:
            traced.append((f"traced{i}", run_child(dict(request, trace=True, min_setups=0),
                                                   work, f"traced{i}", remaining())))
        elapsed = time.perf_counter() - loop_started
        rounds = len(timed)
        if rounds >= MAX_REPEATS or (rounds >= (1 if args.trace else MIN_REPEATS)
                                     and elapsed * (rounds + 1) / rounds > budget):
            break

    children = timed + traced
    csvs = [(label, text) for label, _ in children
            if (text := _csv_text(work, label, csv_name)) is not None]
    failures = gate_failures(workload, children, csvs, delta, check_csv)
    rows = read_rows(csvs[0][1]) if csvs else {}

    attempted = per_child * len(children)
    failed = sum(per_child if c is None or c["exit_code"] != 0
                 else int(c["counters"].get("samplers.failed", 0)) for _, c in children)
    e2e = end_to_end_metrics([c for _, c in timed], rows)
    if args.trace:
        ok = [c for _, c in traced if c is not None]
        per = [layer_metrics(c) for c in ok]
        values = {name: _median([p.get(name) for p in per]) for name, _, _ in PER_LAYER}
        traced_run = max((c["run_s"] for c in ok), default=None)
        values["trace.overhead_s"] = (traced_run - e2e["run_s"]
                                      if traced_run is not None and e2e["run_s"] else None)
        table = PER_LAYER
        missing = sorted({site for c in ok for site in c["missing"]})
        if missing:
            sys.stderr.write(f"missing hooks (metrics reported as null): {missing}\n")
    else:
        values, table = e2e, END_TO_END

    report = [f"workload {workload.name}  seed {seed}  threads {workload.threads}  "
              f"repeats {len(timed)}{'  traced ' + str(len(traced)) if traced else ''}  "
              f"wall {time.perf_counter() - started:.1f}s"]
    report += [f"  {name:45s} {values[name]!r:>24} {unit}" for name, unit, _ in table]
    report += ["  csv: " + line for line in (csvs[0][1].splitlines() if csvs else [])]
    report += [f"  GATE FAILED: {f}" for f in failures] or ["  gate: all checks passed"]
    sys.stderr.write("\n".join(report) + "\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=workload.name, seed=seed, threads=workload.threads,
                       repeats=len(timed), traced=len(traced), failures=failures,
                       repeat_run_s=[c and c["run_s"] for _, c in timed],
                       csv=csvs[0][1] if csvs else None), fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
