"""Tracer, self-time and hook-installation checks.

Run with: python3 -m pytest perfbench/tests
"""

import threading

import numpy as np
import pytest

import run
import spans
from spans import Hook, Span, Tracer, installed, self_times, summarize


def _span(i, name, start, end, parent=None, thread=1):
    return Span(i, name, start, end, parent, "r", thread, None)


def test_self_time_of_nested_spans():
    recorded = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "mid", 1.0, 6.0, parent=1),
        _span(3, "leaf", 2.0, 3.0, parent=2),
        _span(4, "leaf", 4.0, 5.5, parent=2),
        _span(5, "mid", 7.0, 9.0, parent=1),
    ]
    own = self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(5.0 - 1.0 - 1.5)
    assert own[3] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.0)
    summary = summarize(recorded)
    assert summary["leaf"] == {"calls": 2, "s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    assert summary["mid"]["self_s"] == pytest.approx(2.5 + 2.0)


def test_self_time_with_children_on_two_threads():
    # A batch on thread 1 whose samples run in parallel on threads 2 and 3:
    # the batch's own time is what the union of its children leaves uncovered.
    recorded = [
        _span(1, "batch", 0.0, 10.0),
        _span(2, "sample", 1.0, 6.0, parent=1, thread=2),
        _span(3, "sample", 2.0, 8.0, parent=1, thread=3),
        _span(4, "step", 3.0, 4.0, parent=3, thread=3),
    ]
    own = self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 7.0)
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(5.0)


def test_per_thread_stacks_and_adoption():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(i):
        with tracer.span("sample", sample=i):
            barrier.wait(timeout=10)
            with tracer.span("step"):
                barrier.wait(timeout=10)

    with tracer.span("batch", adopt=True) as batch:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    samples = [s for s in tracer.spans if s.name == "sample"]
    steps = [s for s in tracer.spans if s.name == "step"]
    assert {s.parent for s in samples} == {batch.id}
    assert len({s.thread for s in samples}) == 2
    for step in steps:
        parent = by_id[step.parent]
        assert parent.name == "sample"
        assert parent.thread == step.thread
        assert step.sample == parent.sample
    assert all(s.end >= s.start for s in tracer.spans)


def _site_values(hooks):
    values = {}
    for hook in hooks:
        for site in hook.sites:
            owner, attr, value = spans._resolve(site)
            values[site] = (value, attr in vars(owner))
    return values


def test_every_patched_attribute_is_restored():
    before = _site_values(spans.LAYER_HOOKS)
    tracer = Tracer()
    with installed(tracer, spans.LAYER_HOOKS):
        during = _site_values(spans.LAYER_HOOKS)
        assert all(during[site][0] is not before[site][0] for site in before)
    assert tracer.missing == set()
    assert _site_values(spans.LAYER_HOOKS) == before


def test_attributes_are_restored_when_the_block_raises():
    before = _site_values(spans.LAYER_HOOKS)
    with pytest.raises(RuntimeError):
        with installed(Tracer(), spans.LAYER_HOOKS):
            raise RuntimeError("boom")
    assert _site_values(spans.LAYER_HOOKS) == before


def test_missing_hook_is_recorded_and_its_metric_is_null():
    hooks = (Hook("projection.project_pocs", ("chanceflow.projection:no_such_function",)),
             Hook("flow.velocity", ("chanceflow.flow:FlowModel.velocity",)))
    tracer = Tracer()
    with installed(tracer, hooks):
        pass
    assert tracer.missing == {"chanceflow.projection:no_such_function"}
    child = {"summary": {}, "counters": {},
             "missing": ["chanceflow.samplers:project_pocs",
                         "chanceflow.projection:project_pocs",
                         "chanceflow.chance:TightenedConstraint.project"]}
    metrics = run.layer_metrics(child)
    assert metrics["projection.project_pocs.calls"] is None
    assert metrics["projection.project_pocs.cycles"] is None
    # Two of the three closed-form sites remain, so that metric stays a number.
    assert metrics["projection.closed_form.calls"] == 0
    assert metrics["flow.velocity.calls"] == 0


def test_traced_batch_tags_samples_and_keeps_records_identical():
    from chanceflow import (ConstraintSet, FlowModel, GaussianMixtureTarget,
                            LinearIneq, SamplerConfig, cli)
    model = FlowModel(GaussianMixtureTarget(np.array([[-2.0, 0.0], [2.0, 0.0]]), 0.4))
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), -1.0),))
    cfg = SamplerConfig(algorithm="ccfm", samples=4, seed=3, n_steps=10)
    plain = cli.run_batch(model, cs, cfg, threads=2)
    tracer = Tracer()
    with installed(tracer, spans.LAYER_HOOKS):
        traced = cli.run_batch(model, cs, cfg, threads=2)
    for a, b in zip(plain, traced):
        assert np.array_equal(a.states, b.states)
    samples = [s for s in tracer.spans if s.name == "samplers.sample.ccfm"]
    batch = [s for s in tracer.spans if s.name == "samplers.run_batch"]
    assert sorted(s.sample for s in samples) == [0, 1, 2, 3]
    assert len(batch) == 1 and all(s.parent == batch[0].id for s in samples)
    velocity = [s for s in tracer.spans if s.name == "flow.velocity"]
    assert len(velocity) == 4 * 10
    assert sorted({s.sample for s in velocity}) == [0, 1, 2, 3]
    assert tracer.counters["samplers.samples"] == 4
