"""Frozen workloads: inputs, known answers, seeded variation and checks.

Every input and every expected answer is read from ``data/*.json``, written
once by ``freeze.py``; nothing here asks the engine what the answer should
be.  The seed sets the order of the inputs and, for each input in each pass,
a translation x -> x + b, y -> y + d.  A translation is a point transformation, so it keeps
the order, the symmetry dimension m, the certificate case and the affine
class: the frozen answers hold for every seed, and an answer that changes
under translation counts as wrong.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

DATA_DIR = Path(__file__).resolve().parent / "data"
WORKLOADS = ("corpus", "controls", "rational", "oracle")

# Translations the seed draws from.  Both coordinates move, so no input
# keeps the cheap unshifted form; an input marked ``"shift_x": false`` in the
# data keeps x fixed, because its x-shifts exceed the op budget today (see
# README.md, "Seeded variation").
TRANSLATIONS = [(b, d) for b in (1, 2) for d in (1, 2)]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def translate(text: str, b: int, d: int) -> str:
    """Rewrite ``text`` under x -> x + b, y -> y + d.

    Derivatives are left alone: ``y'`` and ``y^(k)`` keep their meaning, as
    the derivatives of y + d are those of y.  ``y^2`` is a power of y and is
    shifted.  Identifiers other than x and y (``exp``, ``log``) are kept.
    """
    def shift(m):
        name = m.group(0)
        if name == "x" and b:
            return "(x+%d)" % b
        if name == "y" and d:
            rest = text[m.end():m.end() + 2]
            if rest[:1] != "'" and rest != "^(":
                return "(y+%d)" % d
        return name
    return _IDENT.sub(shift, text)


@dataclass
class Op:
    """One timed call and the check of its result against the known answer.

    ``prepare`` runs before the clock starts and returns the call to time;
    ``check`` runs after it stops and returns a problem description, or
    None when the result is right.
    """

    id: str
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], Optional[str]]


def load_data(workload: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    with open(DATA_DIR / ("%s.json" % workload), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """The inputs of one workload and the seeded variation of each pass.

    The seed fixes the order of the inputs for the whole run; each pass
    draws its own translations, so a run with several passes averages over
    several draws.  ``lieode`` is the imported package: calls go through
    its module attributes at call time, so a tracer that rebinds them sees
    every call.
    """

    def __init__(self, name: str, seed: int, lieode):
        self.name = name
        self.seed = seed
        self.lieode = lieode
        self.entries = load_data(name)["inputs"]
        self.order = random.Random(seed).sample(range(len(self.entries)),
                                                len(self.entries))

    def pass_ops(self, k: int) -> list[Op]:
        """The ops of pass ``k``; the same seed and k give the same ops."""
        rng = random.Random("%d/%d" % (self.seed, k))
        ops = []
        for i in self.order:
            entry = self.entries[i]
            b, d = rng.choice(TRANSLATIONS)
            if not entry.get("shift_x", True):
                b = 0
            ops.append(make_op(self.name, entry, (b, d), self.lieode))
        return ops


def make_op(workload: str, entry: dict, shift, lieode) -> Op:
    make = _oracle_op if workload == "oracle" else _analyze_op
    return make(entry, shift, lieode)


def _analyze_op(entry: dict, shift, lieode) -> Op:
    text = translate(entry["text"], *shift)
    pipeline = lieode.pipeline

    def prepare():
        return lambda: pipeline.analyze(text)

    return Op("%s@%d,%d" % (entry["id"], *shift), prepare,
              lambda report: check_report(report, entry))


def check_report(report, want: dict) -> Optional[str]:
    """Compare an analysis with the frozen n, m, verdict, case and class."""
    cert = report.certificate
    got = {"n": report.n, "m": report.m, "verdict": cert.verdict,
           "case": cert.case}
    problems = ["%s=%s, expected %s" % (k, v, want[k])
                for k, v in got.items() if v != want[k]]
    want_class = want.get("affine_class")
    if want_class is not None:
        cls = report.recovery.affine if report.recovery is not None else None
        if cls is None or affine_class_json(cls) != want_class:
            problems.append("affine class differs from the frozen one")
    return "; ".join(problems) or None


def affine_class_json(cls) -> dict:
    """The fields of an AffineClass that decide equivalence, as JSON."""
    return {"degree": cls.degree, "support": list(cls.support),
            "canonical": [str(c) for c in cls.canonical]}


def _oracle_op(entry: dict, shift, lieode) -> Op:
    pushforward = lieode.pushforward
    poly = lieode.CharPoly(tuple(Fraction(c) for c in entry["source_poly"]))
    psi = translate(entry["psi"], *shift)
    phi = translate(entry["phi"], *shift)

    def prepare():
        # a fresh transformation per op, so no op reuses the chain-rule
        # partials an earlier op cached in its registry
        T = pushforward.PointTransformation(psi, phi)
        return lambda: pushforward.push_linear(poly, T)

    def check(inst) -> Optional[str]:
        problems = []
        if inst.ode != lieode.parse_ode(translate(entry["image"], *shift)):
            problems.append("image differs from the frozen image")
        if inst.expected_case != entry["case"]:
            problems.append("case %s, expected %s"
                            % (inst.expected_case, entry["case"]))
        return "; ".join(problems) or None

    return Op("%s@%d,%d" % (entry["id"], *shift), prepare, check)
