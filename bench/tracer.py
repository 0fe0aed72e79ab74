"""Outside-in tracer: times calls into lieode's public functions.

Nothing inside the package is edited.  Each hook point is a public function
(or a method, or a class whose constructor is timed) named by its defining
module, such as ``polys.gcd``.  ``Tracer.install`` replaces the function with
a timing wrapper in every ``lieode`` module that holds a reference to it, so
calls made from inside the package are seen too: ``gcd`` is bound in both
``polys`` and ``ratfunc``, ``derived_algebra`` in both ``pipeline`` and
``liealgebra``.  Methods and constructors are wrapped once, on their class.

Self time of a call is its duration minus the time covered by the hooked
calls it made.  Stage hooks also keep one span per call (name, start, end,
parent span) for the current op; arithmetic hooks are only aggregated, as
counts and self time per op, because they run millions of times.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

STAGE = "stage"
ARITH = "arith"

# (hook point, kind).  A trailing method name after a class is looked up as
# given or as the dunder of that name (``MPoly.mul`` -> ``MPoly.__mul__``); a
# class alone times its ``__init__``.
HOOKS = [
    ("pipeline.analyze", STAGE),
    ("parsing.parse_ode", STAGE),
    ("determining.determining_system", STAGE),
    ("involutive.complete", STAGE),
    ("liealgebra.series_basis", STAGE),
    ("liealgebra.normal_form_table", STAGE),
    ("liealgebra.structure_constants", STAGE),
    ("liealgebra.derived_algebra", STAGE),
    ("liealgebra.certify", STAGE),
    ("recovery.recovery_details", STAGE),
    ("pushforward.push_linear", STAGE),
    ("involutive.reduce", ARITH),
    ("linalg.rref", ARITH),
    ("linalg.in_span", ARITH),
    ("pushforward.TranscendentalRegistry.total_dx", ARITH),
    ("ratfunc.RatFunc", ARITH),
    ("polys.gcd", ARITH),
    ("polys.divexact", ARITH),
    ("polys.MPoly.mul", ARITH),
]

# gcd calls made through this module's binding are the ones at the RatFunc
# boundary; the share of them that return 1 is polys.gcd.trivial_frac.
GCD_HOOK = "polys.gcd"
GCD_BOUNDARY_MODULE = "ratfunc"


class Tracer:
    """Collects per-op spans and per-op aggregates of hooked calls."""

    def __init__(self, package: str = "lieode", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.absent: list[str] = []
        self.records: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []     # [child seconds, span index or None]
        self.begin_op(None)

    # -- per-op bookkeeping ----------------------------------------------------

    def begin_op(self, label) -> None:
        """Start a new op; anything recorded since the last op is dropped."""
        self._stack.clear()
        self._label = label
        self._calls = defaultdict(int)
        self._self = defaultdict(float)
        self._spans: list[list] = []
        self._gcd_boundary = 0
        self._gcd_trivial = 0

    def end_op(self, latency_s: float, scale: float = 1.0) -> None:
        """Close the op; ``scale`` converts its times to reference speed."""
        self.records.append({
            "op": len(self.records),
            "label": self._label,
            "latency_s": latency_s,
            "scale": scale,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self._spans],
            "calls": dict(self._calls),
            "self_s": dict(self._self),
            "gcd_boundary": [self._gcd_boundary, self._gcd_trivial],
        })

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, fn, kind: str = ARITH, probe=None):
        """Timing wrapper around ``fn`` recorded under ``name``.

        ``probe(result)`` runs after each call when given; the gcd boundary
        uses it to count trivial results.
        """
        clock = self.clock
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = None
            if kind == STAGE:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                span = len(tracer._spans)
                tracer._spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                tracer._calls[name] += 1
                tracer._self[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span is not None:
                    tracer._spans[span][1:3] = [start, end]
            if probe is not None:
                probe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _gcd_probe(self, g) -> None:
        self._gcd_boundary += 1
        if g.is_const():
            self._gcd_trivial += 1

    # -- install / uninstall -----------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package
                                      or n.startswith(self.package + "."))]

    def _resolve(self, hook: str):
        """(owner, attribute, original) for a hook point, or None if absent."""
        mod_name, *path = hook.split(".")
        owner = sys.modules.get("%s.%s" % (self.package, mod_name))
        if owner is None or not path:
            return None
        for i, part in enumerate(path):
            last = i == len(path) - 1
            if last and isinstance(owner, type):
                for attr in (part, "__%s__" % part):
                    if attr in vars(owner):
                        return owner, attr, vars(owner)[attr]
                return None
            nxt = getattr(owner, part, None)
            if nxt is None:
                return None
            if last:
                if isinstance(nxt, type):
                    init = vars(nxt).get("__init__")
                    return (nxt, "__init__", init) if init else None
                return owner, part, nxt
            owner = nxt
        return None

    def install(self, hooks=HOOKS) -> None:
        """Rebind every hook point; missing ones are listed in ``absent``."""
        modules = self._modules()
        for hook, kind in hooks:
            found = self._resolve(hook)
            if found is None or not callable(found[2]):
                self.absent.append(hook)
                continue
            owner, attr, original = found
            if isinstance(owner, type):
                traced = self.wrap(hook, original, kind)
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, alias, traced)
                continue
            for mod in modules:
                for attr_name, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    probe = None
                    if hook == GCD_HOOK and mod.__name__.endswith(
                            "." + GCD_BOUNDARY_MODULE):
                        probe = self._gcd_probe
                    self._rebind(mod, attr_name,
                                 self.wrap(hook, original, kind, probe))

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    @staticmethod
    def totals(records):
        """(calls, scaled self seconds, gcd boundary calls, trivial ones)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        boundary = trivial = 0
        for rec in records:
            for k, v in rec["calls"].items():
                calls[k] += v
            for k, v in rec["self_s"].items():
                self_s[k] += v * rec["scale"]
            boundary += rec["gcd_boundary"][0]
            trivial += rec["gcd_boundary"][1]
        return calls, self_s, boundary, trivial
