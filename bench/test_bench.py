"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py
"""
import signal
import sys
import types

import pytest

import run
import workloads
from tracer import ARITH, STAGE, Tracer


def test_passes_repeat_per_seed_and_vary_per_pass():
    lieode = types.SimpleNamespace(pipeline=None)
    a = workloads.Workload("corpus", 7, lieode)
    b = workloads.Workload("corpus", 7, lieode)
    ids = [[op.id for op in wl.pass_ops(k)] for wl in (a, b) for k in (0, 1)]
    assert ids[0] == ids[2] and ids[1] == ids[3]
    assert ids[0] != ids[1]
    assert [i.split("@")[0] for i in ids[0]] == [i.split("@")[0]
                                                  for i in ids[1]]


def test_translate_shifts_coordinates_not_derivatives():
    text = "y'' + x*y^2 = y'*y^(3) + exp(x)/y"
    assert workloads.translate(text, 1, 2) == (
        "y'' + (x+1)*(y+2)^2 = y'*y^(3) + exp((x+1))/(y+2)")
    assert workloads.translate(text, 0, 0) == text


class OneOp:
    """A workload of one op, the same in every pass."""

    def __init__(self, op):
        self.op = op

    def pass_ops(self, k):
        return [self.op]


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def test_budget_stops_a_runaway_op(monkeypatch, alarm):
    monkeypatch.setattr(run, "BUDGET_S", 0.05)

    def spin():
        while True:
            pass
    op = workloads.Op("spin", lambda: spin, lambda result: None)
    latency, result, error = run.run_op(op)
    assert latency == 0.05
    assert result is None
    assert "budget" in error
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_failed_op_is_counted_and_not_checked(alarm):
    def boom():
        raise ValueError("no")
    op = workloads.Op("boom", lambda: boom, lambda result: "checked")
    passes = run.run_passes(OneOp(op), 1)
    assert [p.failed for p in passes] == [1]
    assert [p.wrong for p in passes] == [0]


@pytest.fixture
def fake_package():
    """fakepkg.mod defines outer/inner; fakepkg.user imported inner."""
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner():
        now[0] += 2.0
        return 1

    def outer():
        now[0] += 1.0
        mod.inner()
        user.inner()
        now[0] += 3.0

    mod.inner, mod.outer, user.inner = inner, outer, inner
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.mod",
                                              "fakepkg.user")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod,
                        "fakepkg.user": user})
    yield mod, user, (lambda: now[0])
    for k, v in saved.items():
        if v is None:
            sys.modules.pop(k, None)
        else:
            sys.modules[k] = v


def test_self_time_excludes_child_spans(fake_package):
    mod, user, clock = fake_package
    tracer = Tracer(package="fakepkg", clock=clock)
    tracer.install([("mod.outer", STAGE), ("mod.inner", ARITH),
                    ("mod.renamed_away", ARITH)])
    try:
        tracer.begin_op("one")
        mod.outer()
        tracer.end_op(8.0)
    finally:
        tracer.uninstall()
    calls, self_s, _, _ = tracer.totals(tracer.records)
    # outer spans 8 s, of which its two inner calls cover 4 s
    assert calls == {"mod.outer": 1, "mod.inner": 2}
    assert self_s == {"mod.outer": 4.0, "mod.inner": 4.0}
    assert tracer.records[0]["spans"] == [
        {"name": "mod.outer", "start": 0.0, "end": 8.0, "parent": None}]
    assert tracer.absent == ["mod.renamed_away"]
    # uninstall restores the original bindings in every module
    assert user.inner is mod.inner and not hasattr(mod.inner, "__wrapped__")


def test_nested_stage_spans_name_their_parent(fake_package):
    mod, user, clock = fake_package
    tracer = Tracer(package="fakepkg", clock=clock)
    tracer.install([("mod.outer", STAGE), ("mod.inner", STAGE)])
    try:
        tracer.begin_op("one")
        mod.outer()
        tracer.end_op(8.0)
    finally:
        tracer.uninstall()
    spans = tracer.records[0]["spans"]
    assert [(s["name"], s["parent"]) for s in spans] == [
        ("mod.outer", None), ("mod.inner", 0), ("mod.inner", 0)]
    assert [(s["start"], s["end"]) for s in spans[1:]] == [
        (1.0, 3.0), (3.0, 5.0)]
