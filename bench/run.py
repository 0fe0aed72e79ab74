#!/usr/bin/env python3
"""lieode benchmark: time to verdict on frozen known-answer workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  One
process, one thread, one caller: each op starts when the previous one has
been checked (a closed loop).  An op is one ``analyze(text)`` call, or one
``push_linear`` call on the ``oracle`` workload.  The run makes a fixed
number of whole passes over the workload's inputs: as many as fit in
``--seconds`` at the speed the benchmark was defined with.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see tracer.py), whose spans are written to ``bench/out/``.
Every result is checked against the frozen known answer, outside the timed
section.  The exit code is 0 whenever the run completes, 2 on a usage or
set-up error.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# An op still running after this many seconds is stopped and counts as
# failed, at the full budget in the latency percentiles.
BUDGET_S = 20.0
# No new op starts after this many seconds, whatever --seconds says, so a
# run that has become very slow still ends within three minutes.
HARD_STOP_S = 120.0
SETUP_REPEATS = 7

# Host speed.  The shared host runs the same code up to 1.7 times slower for
# seconds to minutes at a time (README.md, "Host noise").  A fixed task that
# does not touch lieode is timed between every two ops, and each time is
# scaled by REFERENCE_S / (reference time measured around it), so times are
# reported at the host speed the benchmark was defined on.
REFERENCE_S = 0.0065
# After an op, the reference task runs for about this share of the op's
# time (1 to 9 runs), and the median is used, so a burst that hits one
# reference run is outvoted.
REFERENCE_SHARE = 0.02

# Op time of one pass at reference host speed, measured when the benchmark
# was defined.  A run makes --seconds / PASS_S whole passes (at least one),
# so every run of a workload, on every commit, times the same ops.
PASS_S = {"corpus": 16.4, "controls": 0.89, "rational": 11.6, "oracle": 7.65}

# The highest percentile with at least ten samples beyond it, for the number
# of ops a 25 s run completes at the commit that defined the benchmark;
# rational's ops are too slow for that and it takes p90 (README.md).
TAIL_PERCENTILE = {"corpus": 80, "controls": 96, "rational": 90, "oracle": 75}

PER_LAYER_TIMES = [
    "pipeline.analyze", "parsing.parse_ode", "determining.determining_system",
    "involutive.complete", "involutive.reduce", "liealgebra.series_basis",
    "liealgebra.structure_constants", "liealgebra.certify", "linalg.rref",
    "recovery.recovery_details", "ratfunc.RatFunc", "polys.gcd",
    "polys.divexact", "polys.MPoly.mul", "pushforward.push_linear",
    "pushforward.TranscendentalRegistry.total_dx",
]
PER_LAYER_CALLS = [
    "involutive.reduce", "liealgebra.normal_form_table",
    "liealgebra.derived_algebra", "linalg.rref", "linalg.in_span",
    "ratfunc.RatFunc", "polys.gcd", "polys.MPoly.mul",
    "pushforward.TranscendentalRegistry.total_dx",
]


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that exceeds BUDGET_S.

    A BaseException, so that no ``except Exception`` in the package under
    test can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def reference_time() -> float:
    """Seconds taken by a fixed pure-Python task: exact fractions, dicts."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 900):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    table = {}
    for i in range(6000):
        table[(i, i % 7)] = i * i
    return time.perf_counter() - t0


def reference_median(spent_s: float) -> float:
    """Median reference time, over more runs after a longer op."""
    n = min(9, max(1, round(REFERENCE_SHARE * spent_s / REFERENCE_S)))
    return statistics.median(reference_time() for _ in range(n))


def fresh_import():
    """Import lieode from src/ as a first import would."""
    for name in [n for n in sys.modules
                 if n == "lieode" or n.startswith("lieode.")]:
        del sys.modules[name]
    lieode = importlib.import_module("lieode")
    if not Path(lieode.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("lieode comes from %s, not from this checkout's src/"
                          % lieode.__file__)
    return lieode


def set_up(workload: str, seed: int):
    """Import the package and load the inputs SETUP_REPEATS times.

    Returns the median set-up time and the workload of the last repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / reference_time()
        t0 = time.perf_counter()
        wl = Workload(workload, seed, fresh_import())
        wl.pass_ops(0)
        times.append((time.perf_counter() - t0) * scale)
    return statistics.median(times), wl


class Pass:
    """Latencies and outcomes of one pass over the inputs.

    ``latencies`` are scaled to the reference host speed, ``raw`` are not.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.refs: list[float] = []
        self.failed = 0
        self.wrong = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def completed(self) -> int:
        return len(self.latencies) - self.failed


def run_op(op, tracer=None):
    """Time one op under the budget; return (latency, result, error)."""
    call = op.prepare()
    if tracer is not None:
        tracer.begin_op(op.id)
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    t0 = time.perf_counter()
    try:
        result = call()
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        latency = BUDGET_S
        error = "exceeded the %.0f s budget" % BUDGET_S
    except Exception:
        latency = time.perf_counter() - t0
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return latency, result, error


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / PASS_S[workload]))


def run_passes(wl, count: int, tracer=None, problems=None) -> list[Pass]:
    """``count`` whole passes, from pass 0."""
    passes: list[Pass] = []
    start = time.perf_counter()
    ref_before = reference_time()
    while len(passes) < count:
        p = Pass()
        ops = wl.pass_ops(len(passes))
        for op in ops:
            if time.perf_counter() - start > HARD_STOP_S:
                break
            latency, result, error = run_op(op, tracer)
            ref_after = reference_median(latency)
            # a timed-out op stays at the full budget
            scale = (1.0 if latency == BUDGET_S
                     else 2 * REFERENCE_S / (ref_before + ref_after))
            ref_before = ref_after
            if tracer is not None:
                tracer.end_op(latency, scale)
            p.latencies.append(latency * scale)
            p.raw.append(latency)
            p.refs.append(ref_after)
            if error is None:
                error = op.check(result)
                p.wrong += error is not None
            else:
                p.failed += 1
            if error is not None and problems is not None:
                problems.append("%s: %s" % (op.id, error.strip()))
        passes.append(p)
        if len(p.latencies) < len(ops):
            break
    return passes


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, passes, setup_s) -> dict:
    lat = [x for p in passes for x in p.latencies]
    q = TAIL_PERCENTILE[workload]
    attempted = len(lat)
    failed = sum(p.failed for p in passes)
    raw = [x for p in passes for x in p.raw]
    refs = [x for p in passes for x in p.refs]
    print("ops %d in %d passes; tail is p%d with %d samples beyond it"
          % (attempted, len(passes), q,
             sum(1 for x in lat if x > percentile(lat, q))))
    print("reference task: median %.4g ms here, %.4g ms at reference speed"
          % (statistics.median(refs) * 1e3, REFERENCE_S * 1e3))
    print("before host-speed scaling: p50 %.6g ms, tail %.6g ms, %.6g ops/s"
          % (statistics.median(raw) * 1e3, percentile(raw, q) * 1e3,
             (attempted - failed) / sum(raw)))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, q) * 1e3, "ms"),
        "ops_per_s": (statistics.median(p.completed / p.busy_s
                                        for p in passes), "1/s"),
        "failed_frac": (failed / attempted, "1"),
        "wrong": (sum(p.wrong for p in passes), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, first_pass: int, overhead: float) -> dict:
    """Self time per op over every traced pass; counts from the first.

    The first traced pass repeats exactly for a given seed, so its counts
    do too, however many passes fit in the run.
    """
    _, self_s, _, _ = tracer.totals(tracer.records)
    calls, _, boundary, trivial = tracer.totals(tracer.records[:first_pass])
    ops = len(tracer.records)
    out = {}
    for name in PER_LAYER_TIMES:
        out[name + ".self_ms"] = (self_s.get(name, 0.0) * 1e3 / ops, "ms/op")
    for name in PER_LAYER_CALLS:
        out[name + ".calls"] = (calls.get(name, 0) / first_pass, "calls/op")
    out["polys.gcd.trivial_frac"] = (trivial / boundary if boundary else 0.0,
                                     "ratio")
    out["tracer.overhead_pct"] = (overhead * 100.0, "%")
    return out


def traced_run(wl, seconds, problems):
    """Pass 0 untraced as the reference, then traced passes from pass 0."""
    reference = run_passes(wl, 1, problems=problems)[0]
    tracer = Tracer()
    tracer.install()
    try:
        count = max(1, pass_count(wl.name, seconds) - 1)
        passes = run_passes(wl, count, tracer, problems)
    finally:
        tracer.uninstall()
    for hook in tracer.absent:
        print("hook point absent: %s" % hook)
    overhead = passes[0].busy_s / reference.busy_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-seed%d.json" % (wl.name, wl.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed,
                   "absent": tracer.absent, "ops": tracer.records}, fh)
    print("spans written to %s" % path.relative_to(ROOT))
    return passes, per_layer(tracer, len(passes[0].latencies), overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        setup_s, wl = set_up(args.workload, args.seed)
    except (ImportError, OSError, ValueError) as exc:
        print("set-up failed: %s" % exc, file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    problems: list[str] = []
    if args.trace:
        passes, metrics = traced_run(wl, args.seconds, problems)
    else:
        passes = run_passes(wl, pass_count(wl.name, args.seconds),
                            problems=problems)
        metrics = end_to_end(args.workload, passes, setup_s)
    for line in problems[:10]:
        print("problem: %s" % line, file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %s" % (name, value, unit))
    wrong = sum(p.wrong for p in passes)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                if k not in ("failed_frac", "wrong")}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
