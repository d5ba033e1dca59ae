"""Tests of the benchmark's own code: generators, answer checks, span arithmetic,
host-speed rescaling.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import signal
import sys
import time
import types

import numpy as np
import pytest

import hostspeed
import spans
import workloads

import spinplanar as sp


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    first = [t.input for t in workloads.make_tasks(name, 5)]
    again = [t.input for t in workloads.make_tasks(name, 5)]
    other = [t.input for t in workloads.make_tasks(name, 6)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_inputs_validate(name, seed):
    for task in workloads.make_tasks(name, seed):
        if task.command == "group":
            sp.validate_group(task.input["rows"])
            assert len(task.input["rows"]) ** (len(task.dims) - 2) == task.dims[-1]
        else:
            # the file round-trips through the program's parser and passes
            # the object's own validator at the tolerance the CLI is given
            sp.qit_from_json(json.loads(json.dumps(task.input))).validate(workloads.TOL)


def test_hadamard_equivalent_is_not_fourier():
    h = workloads.hadamard_equivalent(np.random.default_rng(3), 4)
    assert np.allclose(np.abs(h), 1.0)
    assert np.allclose(h @ h.conj().T, 4 * np.eye(4))
    assert not np.allclose(h, workloads.fourier(4))


def test_relabel_moves_the_identity_and_keeps_a_group():
    rng = np.random.default_rng(0)
    tables = [workloads.relabel(workloads.s3_table(), rng) for _ in range(6)]
    assert {sp.validate_group(t) for t in tables} != {1}
    assert all(sorted(sorted(r) for r in t) == [list(range(1, 7))] * 6 for t in tables)


def test_closed_forms():
    assert workloads.fourier_dims(4, 4) == (1, 1, 4, 16, 64)
    assert workloads.tensor_dims(2, 3) == (1, 4, 16, 64)


def _task(command="qdims", dims=(1, 1, 2), closure=False):
    return workloads.Task("t", command, (), {}, dims, closure)


def _payload(dims=(1, 1, 2), residual=1e-15):
    return {"levels": [{"m": m, "dim": d, "residual": residual} for m, d in enumerate(dims)],
            "zero_minus": {"m": 0, "dim": 1, "residual": 0.0}}


def test_check_answer_accepts_right_answers():
    assert workloads.check_answer(_task(), 0, _payload()) == []
    good_group = dict(_payload(), verdict=True, predicted=[1, 1, 2])
    assert workloads.check_answer(_task("group"), 0, good_group) == []
    closed = dict(_payload(), closure={"ok": True, "residuals": {"product": 1e-15}})
    assert workloads.check_answer(_task(closure=True), 0, closed) == []


@pytest.mark.parametrize("code, payload, task", [
    (1, _payload(), _task()),
    (0, None, _task()),
    (0, _payload(dims=(1, 1, 3)), _task()),
    (0, _payload(residual=1e-6), _task()),
    (0, dict(_payload(), zero_minus={"dim": 2, "residual": 0.0}), _task()),
    (0, dict(_payload(), closure={"ok": False, "residuals": {"product": 1.0}}),
     _task(closure=True)),
    (0, _payload(), _task(closure=True)),
    (0, dict(_payload(), verdict=False, predicted=[1, 1, 2]), _task("group")),
    (0, dict(_payload(), verdict=True, predicted=[1, 1, 3]), _task("group")),
])
def test_check_answer_rejects_wrong_answers(code, payload, task):
    assert workloads.check_answer(task, code, payload)


def test_self_times_on_a_synthetic_tree():
    tree = [
        spans.Span("pass", 0.0, 10.0, None),
        spans.Span("cli", 1.0, 9.0, 0),
        spans.Span("assembly", 2.0, 5.0, 1),
        spans.Span("factor", 5.0, 6.0, 1),
        spans.Span("assembly", 7.0, 7.5, 1),
        spans.Span("cli", 9.0, 9.5, 0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"pass": 1.5, "cli": 4.0, "assembly": 3.5, "factor": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    tree = [spans.Span("a", 0.0, 4.0, None),
            spans.Span("b", 1.0, 3.0, 0),
            spans.Span("c", 2.0, 5.0, 0)]
    assert spans.self_times(tree)["a"] == pytest.approx(1.0)


def _fake_program():
    mod = types.ModuleType("fake_program")
    mod.inner = lambda x: x + 1
    mod.layer = lambda x: mod.inner(x) * 2
    return mod


def test_wrappers_open_spans_only_under_the_top_layer(monkeypatch):
    mod = _fake_program()
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    ticks = iter(range(100))
    tracer = spans.Tracer(top="cli", clock=lambda: float(next(ticks)))
    wraps = [spans.Wrap("fake_program", "layer", "layer"),
             spans.Wrap("fake_program", "inner", "inner", ("inner.calls",),
                        lambda t, a, k, r: t.add("inner.calls", 1))]
    with tracer.installed(wraps):
        with tracer.span("cli"):
            assert mod.layer(1) == 4
            assert mod.inner(1) == 2
    assert [s.name for s in tracer.spans] == ["cli", "layer", "inner"]
    assert tracer.counts == {"inner.calls": 2}
    assert mod.layer.__name__ == "<lambda>" and not hasattr(mod.layer, "__wrapped__")
    assert sum(spans.self_times(tracer.spans).values()) == tracer.spans[0].end - tracer.spans[0].start


def test_missing_wrap_target_is_absent_not_fatal(monkeypatch):
    mod = _fake_program()
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    tracer = spans.Tracer(top="cli")
    wraps = [spans.Wrap("fake_program", "norm", "post.norm"),
             spans.Wrap("fake_program", "Gone.method", "x", ("x.calls",)),
             spans.Wrap("no_such_module_here", "f", "y"),
             spans.Wrap("fake_program", "layer", "layer", ("layer.rows",),
                        lambda t, a, k, r: t.add("layer.rows", r.shape[0]))]
    with tracer.installed(wraps):
        with tracer.span("cli"):
            assert mod.layer(1) == 4  # the record breaks on an int result
    assert tracer.missing == ["fake_program.norm", "fake_program.Gone.method",
                              "no_such_module_here.f"]
    # the layer's time is still measured; only the broken count is absent
    assert tracer.absent() == {"post.norm", "x", "x.calls", "y", "layer.rows"}
    assert [s.name for s in tracer.spans] == ["cli", "layer"]


def test_rescale_cancels_host_speed():
    fast = hostspeed.rescale(2.0, [hostspeed.REF_S] * 3)
    slow = hostspeed.rescale(3.0, [1.5 * hostspeed.REF_S, 1.4 * hostspeed.REF_S, 1.6 * hostspeed.REF_S])
    assert fast == pytest.approx(2.0)
    assert slow == pytest.approx(2.0)


def test_sampler_probes_inside_a_section_and_does_not_count_the_probes():
    sampler = hostspeed.Sampler()
    sections = []
    with sampler.timed(sections):
        end = time.perf_counter() + 5 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    (section,) = sections
    assert len(section.samples) >= 3
    assert section.seconds == pytest.approx(5 * hostspeed.PERIOD_S - sum(section.samples), abs=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
