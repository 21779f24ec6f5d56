"""Correctness gate and metric-table checks.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os

import run

CSV = ("experiment,algorithm,steps,scheduler_n,seed,feasibility_rate,sliced_w2,mmse,"
       "smse,cv_ic,cv_cl,wall_time\n"
       "rd_ccfm,ccfm,50,0.5,0,1,,0.0188352395,0.0137550586,0,4.91628907e-13,\n")
OK = {"exit_code": 0}


def test_gate_passes_identical_outputs():
    w = run.WORKLOADS["rd640"]
    assert run.gate_failures(w, [("rep0", OK), ("rep1", OK)],
                             [("rep0", CSV), ("rep1", CSV)], 1e-10) == []


def test_gate_rejects_a_mutated_csv():
    w = run.WORKLOADS["rd640"]
    mutated = CSV.replace("0.0188352395", "0.0188352396")
    failures = run.gate_failures(w, [("rep0", OK), ("rep1", OK)],
                                 [("rep0", CSV), ("rep1", mutated)], 1e-10)
    assert failures == ["rep1: CSV differs from rep0"]


def test_gate_rejects_infeasible_rows_violations_and_failed_runs():
    w = run.WORKLOADS["rd640"]
    bad = CSV.replace(",0,1,,", ",0,0.9,,").replace("4.91628907e-13", "2e-10")
    failures = run.gate_failures(w, [("rep0", OK), ("rep1", {"exit_code": 3}),
                                     ("rep2", None)], [("rep0", bad)], 1e-10)
    assert len(failures) == 4
    assert any("exit code 3" in f for f in failures)
    assert any("rep2: child process failed" in f for f in failures)
    assert any("feasibility_rate" in f for f in failures)
    assert any("cv_cl" in f for f in failures)


def test_gate_compares_thread_counts():
    w = run.WORKLOADS["mix8_threads"]
    text = CSV.replace(",0,4.91628907e-13,", ",,,")
    assert run.gate_failures(w, [("rep0", OK)], [("rep0", text)], None, text) == []
    failures = run.gate_failures(w, [("rep0", OK)], [("rep0", text)], None,
                                 text.replace("0.0137550586", "0.0137550587"))
    assert failures == ["2-thread CSV differs from the 1-thread rep0"]
    assert run.gate_failures(w, [("rep0", OK)], [("rep0", text)], None, None) == [
        "2-thread CSV differs from the 1-thread rep0"]


def test_end_to_end_times_are_those_of_the_slowest_repeat():
    def child(run_s, batch_s):
        return {"run_s": run_s, "batch_s": batch_s, "setup_s": [0.1], "rss_mb": 80.0,
                "counters": {"samplers.samples": 10.0}}

    metrics = run.end_to_end_metrics([child(5.0, 4.0), child(7.0, 2.5), None, child(6.0, 5.0)],
                                     run.read_rows(CSV))
    assert metrics["run_s"] == 7.0
    assert metrics["samples_per_s"] == 2.0
    assert metrics["feasibility_rate"] == 1.0


def test_benchmark_json_matches_the_metric_tables():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
