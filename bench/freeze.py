#!/usr/bin/env python3
"""Write the benchmark's frozen inputs and known answers to bench/data/.

    PYTHONPATH=src python3 bench/freeze.py

Run once, when the workloads are defined; the benchmark only reads the JSON
files this writes, so later changes to ``default_corpus()`` or to the oracle
cannot change what is measured.  Known answers come from the oracle
construction (the source polynomial fixes n, m, the case and the affine
class) or, for the controls, from the literature cited beside each one.
The engine is only asked to push linear equations through transformations,
and each pushed image is then re-checked once by certifying it against its
source class.  Every seeded variant of every input is also run once: an
input whose x-shifts do not finish in half the op budget is marked
``"shift_x": false``, and the variants left out are recorded in the data.
"""
from __future__ import annotations

import json
import signal
import sys
from fractions import Fraction

import lieode
from lieode import analyze, parse_ode, print_ode
from lieode.pushforward import PointTransformation, default_corpus, push_linear
from lieode.recovery import CharPoly, affine_class

import workloads
from run import BUDGET_S, OpTimeout, _alarm
from workloads import DATA_DIR, TRANSLATIONS, affine_class_json

# A seeded variant must finish in half the op budget to be admitted.
PROBE_S = BUDGET_S / 2

LIN = "linearizable"
NOT = "not-linearizable"

ML1990 = ("Mahomed & Leach 1990, J. Math. Anal. Appl. 151, 80-107: a linear "
          "equation of order n >= 3 has m in {n+1, n+2, n+4}; symmetries "
          "beyond the n+1 of linearity are xi(x) d/dx + xi'(x) y d/dy")
LIE_2ND = ("Lie 1891; Mahomed & Leach 1989, J. Math. Phys. 30, 2770: m in "
           "{0, 1, 2, 3, 8} for second order, m = 8 iff linearizable")

# (equation, n, m, verdict, case, characteristic polynomial of the
# constant-coefficient target or None, reference)
CONTROLS = [
    ("y''=6*y^2+x", 2, 0, NOT, "none", None,
     "Painleve I. " + LIE_2ND + ". For y''=F(x,y) the generators are "
     "xi(x) d/dx + ((xi'/2+k) y + beta(x)) d/dy; the y^2, y and y^0 "
     "coefficients of the invariance condition force xi = k = beta = 0"),
    ("y''=2*y^3+x*y", 2, 0, NOT, "none", None,
     "Painleve II (alpha = 0). " + LIE_2ND + ". Same computation as "
     "Painleve I: the y^3, y^2 and y coefficients force xi = k = beta = 0"),
    ("y''=y^2", 2, 2, NOT, "none", None,
     "x-translation and scaling (x, y) -> (l*x, l^-2*y). " + LIE_2ND),
    ("y'''=-1/2*y*y''", 3, 2, NOT, "none", None,
     "Blasius equation: x-translation and scaling (x, y) -> (l*x, y/l); "
     "Bluman & Kumei 1989, Symmetries and Differential Equations, Springer"),
    ("y''''=y^2", 4, 2, NOT, "none", None,
     "x-translation and scaling (x, y) -> (l*x, l^-4*y); the equation is "
     "autonomous and has no other point symmetry (Bluman & Kumei 1989)"),
    ("y'''=2*y*y''-3*(y')^2", 3, 3, NOT, "none", None,
     "Chazy equation, symmetry algebra sl(2,R); Clarkson & Olver 1996, "
     "J. Differential Equations 124, 225-246"),
    ("y''=1/y^3", 2, 3, NOT, "none", None,
     "Ermakov-Pinney equation, symmetry algebra sl(2,R); Leach & "
     "Andriopoulos 2008, Appl. Anal. Discrete Math. 2, 146-157"),
    ("y'''=3/2*(y'')^2/y'", 3, 6, NOT, "none", None,
     "Kummer-Schwarz equation, sl(2,R)+sl(2,R): the only third-order "
     "equation with m = 6, not linearizable (m is not 4, 5 or 7); "
     "Mahomed & Leach 1990, J. Math. Anal. Appl. 151, 80-107"),
    ("y'''+x*y=0", 3, 4, LIN, "nonconstant-coefficients", None,
     ML1990 + ". In Laguerre-Forsyth form y'''+a(x)y=0 such a generator "
     "needs xi'''=0 and xi*a'+3*xi'*a=0; for a=x that forces xi=0, so "
     "m = n+1 = 4"),
    ("y'''=y", 3, 5, LIN, "constant-coefficients", (-1, 0, 0),
     ML1990 + ". Here a=-1 gives xi constant, so m = n+2 = 5; the roots of "
     "z^3-1 are no arithmetic progression, so m is not n+4"),
    ("y''+3*y*y'+y^3=0", 2, 8, LIN, "trivial", None,
     "Modified Emden equation, sl(3,R); Mahomed & Leach 1985, Quaestiones "
     "Math. 8, 241-274"),
    ("y''=(y')^2/y", 2, 8, LIN, "trivial", None,
     "u = log(y) maps it to u''=0, so m = 8. " + LIE_2ND),
]


def roots(*rs) -> CharPoly:
    return CharPoly.from_roots([Fraction(r) for r in rs])


# Oracle images through mixing and rational transformations.
RATIONAL = [
    ("y", "x+y", roots(0, 1, 1)),
    ("y", "x+y", roots(0, 3)),
    ("y", "x+y", roots(-1, 0, 1)),
    ("y", "x+y", roots(-1, 0, 0, 1)),
    ("y", "x*y", roots(0, 3)),
    ("1/(x+y)", "x", roots(0, 0, 0)),
    ("y/(x+1)", "x", roots(0, 0)),
    ("y/(x+1)", "x", roots(-1, 0, 1)),
    ("y/(x+1)", "x", roots(-1, 1, 2)),
    ("y/(1+x^2)", "x", roots(1, -1)),
]

# (source, transformation) pairs whose push is timed on the oracle workload.
ORACLE = [
    ("exp(y)", "x", roots(-1, 0, 1, 3)),
    ("y/x", "1/x", roots(-1, 0, 0, 1)),
    ("1/y", "x", roots(-1, 0, 1, 3)),
    ("y", "x+y", roots(0, 0, 0, 0)),
    ("y", "x+y", roots(-1, 0, 0, 1)),
    ("y", "x*y", roots(1, -1)),
    ("1/(x+y)", "x", roots(0, 0, 0)),
    ("1/(x+y)", "x", roots(-1, 1, 2)),
    ("1/(x+y)", "x", roots(0, 0, 0, 0)),
    ("y/(x+1)", "x", roots(-1, 1, 2)),
    ("y/(x+1)", "x", roots(0, 0, 0, 0)),
    ("y/(1+x^2)", "x", roots(0, 0)),
    ("y/(1+x^2)", "x", roots(1, 1)),
    ("y/(1+x^2)", "x", roots(0, 3)),
]

# Pairs whose push does not finish within the per-op budget today.  They
# stay out of the timed ops, which must not fail, until the rational
# arithmetic is rebuilt (ROADMAP item 2); their images are not frozen.
OVER_BUDGET = [
    ("y/(1+x^2)", "x", roots(0, 0, 0),
     "untranslated, the third total derivative alone takes more than 60 s"),
    ("y", "x+y", roots(-1, 0, 1, 2), "untranslated, more than 10 s"),
    ("y", "x*y", roots(-1, 0, 1),
     "0.17 s untranslated; more than 8 s under every seeded translation"),
]


def poly_json(p: CharPoly) -> list:
    return [str(c) for c in p.coeffs]


def known_answer(p: CharPoly, case: str) -> dict:
    """n, m, verdict, case and class that the oracle construction fixes."""
    n = p.degree
    if case == "trivial":
        m = 8 if n == 2 else n + 4
    else:
        m = n + 2
    cls = affine_class_json(affine_class(p)) if case != "trivial" else None
    return {"n": n, "m": m, "verdict": LIN, "case": case,
            "affine_class": cls}


def image_entry(ident: str, inst) -> dict:
    text = print_ode(inst.ode)
    if parse_ode(text) != inst.ode:
        raise SystemExit("%s: printed image does not parse back" % ident)
    entry = {"id": ident, "text": text}
    entry.update(known_answer(inst.source_poly, inst.expected_case))
    entry["provenance"] = {"source_poly": poly_json(inst.source_poly),
                           "psi": inst.transformation.psi_text,
                           "phi": inst.transformation.phi_text}
    return entry


def certify_against_source(entry: dict) -> None:
    """Analyze an image once and require the frozen answer."""
    r = analyze(entry["text"])
    got = (r.n, r.m, r.certificate.verdict, r.certificate.case)
    want = (entry["n"], entry["m"], entry["verdict"], entry["case"])
    if got != want:
        raise SystemExit("%s: analysis gives %s, construction says %s"
                         % (entry["id"], got, want))
    if entry["affine_class"] is not None and (
            affine_class_json(r.recovery.affine) != entry["affine_class"]):
        raise SystemExit("%s: recovered class differs" % entry["id"])


def finishes(workload: str, entry: dict, shift) -> bool:
    """Run one variant of an input under PROBE_S; it must also be right."""
    op = workloads.make_op(workload, entry, shift, lieode)
    call = op.prepare()
    signal.setitimer(signal.ITIMER_REAL, PROBE_S)
    try:
        result = call()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    problem = op.check(result)
    if problem is not None:
        raise SystemExit("%s: wrong under %s: %s" % (op.id, shift, problem))
    return True


def probe(workload: str, entries: list) -> list:
    """Time every seeded variant once; keep x fixed where x-shifts are slow.

    Returns the variants left out, so that they are on record for the day
    they finish in time.
    """
    left_out = []
    for entry in entries:
        slow = [s for s in TRANSLATIONS if not finishes(workload, entry, s)]
        if not slow:
            continue
        entry["shift_x"] = False
        left_out += [{"id": entry["id"], "shift": list(s),
                      "note": "more than %g s" % PROBE_S} for s in slow]
        for d in sorted({d for _, d in TRANSLATIONS}):
            if not finishes(workload, entry, (0, d)):
                raise SystemExit("%s: too slow even under y -> y + %d"
                                 % (entry["id"], d))
    return left_out


def write(name: str, description: str, inputs: list, **extra) -> None:
    doc = {"workload": name, "description": description,
           "generated_by": "bench/freeze.py"}
    doc["over_budget_shifts"] = probe(name, inputs)
    doc.update(extra)
    doc["inputs"] = inputs
    with open(DATA_DIR / ("%s.json" % name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("%s: %d inputs" % (name, len(inputs)))


def main() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)

    corpus = [image_entry("corpus-%02d" % i, inst)
              for i, inst in enumerate(default_corpus(), 1)]
    write("corpus", "the 51 shipped oracle images, orders 2-4, m 5-8",
          corpus)

    controls = []
    for i, (text, n, m, verdict, case, coeffs, ref) in enumerate(CONTROLS, 1):
        cls = None
        if coeffs is not None:
            p = CharPoly(tuple(Fraction(c) for c in coeffs))
            cls = affine_class_json(affine_class(p))
        controls.append({"id": "control-%02d" % i, "text": text, "n": n,
                         "m": m, "verdict": verdict, "case": case,
                         "affine_class": cls,
                         "provenance": {"reference": ref}})
    write("controls", "literature equations, all four certificate cases",
          controls)

    rational = []
    for i, (psi, phi, p) in enumerate(RATIONAL, 1):
        entry = image_entry("rational-%02d" % i,
                            push_linear(p, PointTransformation(psi, phi)))
        certify_against_source(entry)
        rational.append(entry)
    write("rational", "oracle images through mixing and rational "
          "transformations, orders 2-4", rational)

    oracle = []
    for i, (psi, phi, p) in enumerate(ORACLE, 1):
        inst = push_linear(p, PointTransformation(psi, phi))
        entry = image_entry("oracle-%02d" % i, inst)
        certify_against_source(entry)
        oracle.append({"id": entry["id"], "source_poly": poly_json(p),
                       "psi": psi, "phi": phi, "n": entry["n"],
                       "case": entry["case"], "image": entry["text"]})
    over = [{"source_poly": poly_json(p), "psi": psi, "phi": phi,
             "note": note} for psi, phi, p, note in OVER_BUDGET]
    write("oracle", "push_linear over (source polynomial, transformation) "
          "pairs", oracle, over_budget_pairs=over)
    return 0


if __name__ == "__main__":
    sys.exit(main())
