"""One measured ``chanceflow.cli.run_experiment`` call in a fresh process.

Usage: python3 perfbench/child.py REQUEST.json

The request names the checkout root, config, seed, output directory, thread
count, whether to install the full layer trace, and how many warm set-ups to
time after the run (``min_setups``, ``setup_budget_s``). The result (exit
code, timings, peak RSS, span summary and counters) is written as JSON to the
request's ``result`` path; with tracing on, every span is written to the
request's ``spans`` path.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time


def main(request_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, os.path.join(req["root"], "src"))
    import spans
    from chanceflow import cli, config

    hooks = spans.LAYER_HOOKS if req["trace"] else spans.LIGHT_HOOKS
    tracer = spans.Tracer(run=req["run_id"])
    with spans.installed(tracer, hooks):
        with tracer.span("cli.run_experiment"):
            code = cli.run_experiment(req["config"], seed=req["seed"],
                                      out_dir=req["out_dir"], threads=req["threads"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = spans.summarize(tracer.spans)

    setups = [summary.get("config.parse_config", {}).get("s", 0.0)
              + summary.get("config.build_workbench", {}).get("s", 0.0)]
    # Warm set-ups after the run: at least min_setups, then more while they
    # fit in setup_budget_s, so cheap set-ups get a steadier median.
    spent = 0.0
    while req["min_setups"] and (len(setups) <= req["min_setups"]
                                 or (spent < req["setup_budget_s"] and len(setups) < 50)):
        started = time.perf_counter()
        config.build_workbench(config.parse_config(req["config"]), req["seed"])
        setups.append(time.perf_counter() - started)
        spent += setups[-1]

    if req["trace"]:
        with open(req["spans"], "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "run", "thread", "sample"))
            for s in tracer.spans:
                out.writerow((s.id, s.name, repr(s.start), repr(s.end), s.parent,
                              s.run, s.thread, s.sample))
    result = {
        "exit_code": code,
        "run_s": summary["cli.run_experiment"]["s"],
        "setup_s": setups,
        "batch_s": summary.get("samplers.run_batch", {}).get("s", 0.0),
        "rss_mb": rss_mb,
        "summary": summary,
        "counters": tracer.counters,
        "missing": sorted(tracer.missing),
    }
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
