"""Shared fixtures and strategies for the suite.

The expensive objects — full analyses of the five reference equations and
the oracle-corpus sweep — are computed once per session; several test
modules assert different properties of the same runs.
"""
import functools
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lieode import analyze, default_corpus
from lieode.determining import ETA, XI, Slot, add_term, prolonged_eta
from lieode.errors import InternalInvariantError, OdeSyntaxError
from lieode.involutive import lin_derive
from lieode.jets import jet_name
from lieode.liealgebra import LieAlgebraTable, Point
from lieode.linalg import Mat, Vec, rref
from lieode.parsing import OdeSpec, parse_ode, print_ode
from lieode.polys import MPoly, content, divexact, gcd
from lieode.ratfunc import RatFunc
from lieode.recovery import CharPoly, classify_pair

settings.register_profile("suite", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


def rationals(max_abs: int = 9, max_den: int = 4):
    """Small exact rationals; denominators stay tame to keep runs fast."""
    return st.builds(Fraction,
                     st.integers(-max_abs, max_abs),
                     st.integers(1, max_den))


def nonzero_rationals(max_abs: int = 9, max_den: int = 4):
    return rationals(max_abs, max_den).filter(bool)


def mono_key(exps: Tuple[int, ...]) -> tuple:
    """The monomial order on exponent tuples, the reference for the packed
    keys of ``lieode.polys``: graded, then lex with the last (highest-ranked)
    variable most significant."""
    return (sum(exps), tuple(reversed(exps)))


# -- exact matrices over the rationals -----------------------------------------
#
# The Fraction matrix arithmetic and Faddeev-LeVerrier recursion the engine's
# integer ``linalg.charpoly`` replaced, kept as its reference.


def zeros(r: int, c: int) -> Mat:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(k: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    rb = len(b)
    cb = len(b[0])
    out = zeros(len(a), cb)
    for i, row in enumerate(a):
        oi = out[i]
        for k in range(rb):
            aik = row[k]
            if aik:
                bk = b[k]
                for j in range(cb):
                    oi[j] += aik * bk[j]
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return [[c * x for x in row] for row in a]


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def reference_charpoly(a: Mat) -> List[Fraction]:
    """Ascending coefficients of det(z I - A) without the leading 1, by the
    Faddeev-LeVerrier recursion on Fraction matrices."""
    k = len(a)
    coeffs_desc: List[Fraction] = []  # c1 .. ck with p = z^k + c1 z^(k-1) + ... + ck
    m = identity(k)
    for step in range(1, k + 1):
        am = mat_mul(a, m)
        c = -trace(am) / step
        coeffs_desc.append(c)
        m = mat_add(am, mat_scale(identity(k), c))
    if any(x for row in m for x in row):
        raise ArithmeticError("Faddeev-LeVerrier recursion failed to terminate at zero")
    return list(reversed(coeffs_desc))


# -- integer tables from Fraction data, and back -------------------------------


def lie_table(C) -> LieAlgebraTable:
    """The table of Fraction structure constants C, as numerators over the
    lcm of their denominators."""
    E = math.lcm(*(Fraction(c).denominator for row in C for vec in row
                   for c in vec))
    return LieAlgebraTable(len(C), [[[int(c * E) for c in vec] for vec in row]
                                    for row in C], E)


def fraction_table(table):
    """A normal-form table with each row's numerators over its denominator."""
    return {s: {r: Fraction(v, d) for r, v in vals.items()}
            for s, (vals, d) in table.items()}


def fraction_bracket(C, u, v):
    """[u, v] over the rationals, straight from structure constants C."""
    m = len(C)
    return [sum((u[i] * v[j] * C[i][j][k] for i in range(m)
                 for j in range(m)), Fraction(0)) for k in range(m)]


def row_space_basis(vectors) -> List[Vec]:
    """Canonical basis (rref rows) of the span of the given vectors."""
    vs = [list(v) for v in vectors if any(v)]
    if not vs:
        return []
    m, pivots = rref(vs)
    return m[:len(pivots)]


def inverse(a: Mat) -> Mat:
    """Inverse of a square matrix over the rationals, by rref of [a | I]."""
    k = len(a)
    m, pivots = rref([list(row) + e for row, e in zip(a, identity(k))])
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in m]


def affine_equivalent(p: CharPoly, q: CharPoly) -> bool:
    """Whether p and q have the same class under root maps z -> k*z + b."""
    return classify_pair(p, q)[0]


def substitute(f: RatFunc, name: str, value: RatFunc) -> RatFunc:
    """f with ``value`` put for the variable ``name``, by Horner's scheme."""
    def horner(p: MPoly) -> RatFunc:
        acc = RatFunc.zero()
        for c in reversed(p.coeffs_in(name)):
            acc = acc * value + RatFunc(c)
        return acc

    return horner(f.num) / horner(f.den)


def reference_derivative(f: RatFunc, name: str) -> RatFunc:
    """d f / d name by the quotient rule over Q^2, reduced by a full gcd."""
    p, q = f.num, f.den
    return RatFunc(p.derivative(name) * q - p * q.derivative(name), q * q)


def plain_eval(f, point) -> Fraction:
    """Value of an MPoly or RatFunc at ``point`` ({name: value}), summed term
    by term in Fraction arithmetic."""
    if isinstance(f, RatFunc):
        return plain_eval(f.num, point) / plain_eval(f.den, point)
    total = Fraction(0)
    for e, c in f.terms.items():
        for v, k in zip(f.vars, e):
            c *= Fraction(point[v]) ** k
        total += c
    return total


def solution_data_from_components(xi, eta, point: Point, N: int) -> Dict[Slot, Fraction]:
    """Taylor slot table of an explicitly given generator (xi(x,y), eta(x,y)).

    Test helper: lets known closed-form symmetries be compared against the
    series basis (membership in its span, equality of reconstructed tables).
    """
    env = {"x": point[0], "y": point[1]}
    out: Dict[Slot, Fraction] = {}
    for unk, comp in ((XI, xi), (ETA, eta)):
        row = comp
        by_index = {(0, 0): row}
        for total in range(1, N + 1):
            for i in range(total + 1):
                j = total - i
                if i:
                    by_index[(i, j)] = by_index[(i - 1, j)].derivative("x")
                else:
                    by_index[(i, j)] = by_index[(i, j - 1)].derivative("y")
        for (i, j), fn in by_index.items():
            out[Slot(unk, i, j)] = plain_eval(fn, env)
    return out


def substitute_generator(eq, xi: RatFunc, eta: RatFunc) -> RatFunc:
    """Evaluate an equation on a concrete generator (xi(x,y), eta(x,y))."""
    total = RatFunc.zero()
    for s, c in eq.items():
        v = xi if s.unknown == XI else eta
        for _ in range(s.dx):
            v = v.derivative("x")
        for _ in range(s.dy):
            v = v.derivative("y")
        total = total + RatFunc(c) * v
    return total


def normal_form(inv, p):
    """Reference normal form of p modulo a completed system, over RatFunc.

    Each equation is solved for its lead (coefficient one), and the highest
    reducible slot is eliminated by subtracting its coefficient times the
    matching derivative of the first equation whose lead divides it.  On a
    completed system the result does not depend on these choices, so it
    pins the forward-substitution table exactly.
    """
    solved = [(lead, {s: RatFunc(c, eq[lead]) for s, c in eq.items()})
              for eq, lead in zip(inv.equations, inv.leads)]
    work = {s: RatFunc(c) for s, c in p.items() if not c.is_zero()}
    while True:
        reducible = [s for s in work
                     if any(lead.divides(s) for lead, _ in solved)]
        if not reducible:
            return work
        best = max(reducible, key=inv.ranking.key)
        lead, d = next((lead, eq) for lead, eq in solved
                       if lead.divides(best))
        for var, k in (("x", best.dx - lead.dx), ("y", best.dy - lead.dy)):
            for _ in range(k):
                d = lin_derive(d, var)
        c = work[best]
        for t, v in d.items():
            add_term(work, t, -(c * v))


# -- references for the determining and completion stages ----------------------
#
# These are the product-form determining system and the pairwise completion
# the engine replaced: every product is formed in full, the content is a gcd
# chain followed by a second division, and every cross-derivative is reduced.


def reference_primitive(eq, top):
    """eq divided by the gcd of its coefficients, then scaled so that eq[top]
    has leading coefficient 1."""
    g = content(sorted(eq.values(), key=lambda c: len(c.num)))
    if not g.is_const():
        eq = {s: divexact(c, g) for s, c in eq.items()}
    lc = eq[top].leading_coeff()
    return {s: c * (1 / lc) for s, c in eq.items()}


def invariance_expression(ode: OdeSpec):
    """Q*R times X(y^(n) + f) restricted to solutions, f = P/Q, R = Q/G, as
    one slot-linear expression with coefficients in (x, y, jets)."""
    n, P, Q = ode.n, ode.f.num, ode.f.den
    G = Q
    for v in Q.vars:
        G = gcd(G, Q.derivative(v))
    R = divexact(Q, G)
    etas = prolonged_eta(n)
    top = jet_name(n)
    out = {}
    for s, c in etas[n].items():
        a, b = (c.coeffs_in(top) + [MPoly.zero()])[:2]
        add_term(out, s, R * (Q * a - P * b))
    for lin, v in [({Slot(XI, 0, 0): MPoly.const(1)}, "x")] + [
            (etas[k], jet_name(k)) for k in range(n)]:
        fv = divexact(P.derivative(v) * Q - P * Q.derivative(v), G)
        for s, c in lin.items():
            add_term(out, s, c * fv)
    return out


def reference_determining_system(ode: OdeSpec):
    """invariance_expression collected by jet monomial, each equation made
    primitive with respect to max(eq), duplicates dropped."""
    jets = {jet_name(k) for k in range(1, ode.n)}
    collected = {}
    for slot, c in invariance_expression(ode).items():
        for key, coeff in c.coeffs_over(jets).items():
            collected.setdefault(key, {})[slot] = coeff
    equations, seen = [], set()
    for key in sorted(collected):
        eq = reference_primitive(collected[key], max(collected[key]))
        sig = tuple(sorted(eq.items()))
        if sig not in seen:
            seen.add(sig)
            equations.append(eq)
    return equations


class _RefEq:
    def __init__(self, terms, lead, ident):
        self.terms, self.lead, self.ident = terms, lead, ident
        self.cache = {(0, 0): terms}

    def derived(self, ddx, ddy):
        if (ddx, ddy) not in self.cache:
            self.cache[(ddx, ddy)] = (
                lin_derive(self.derived(ddx - 1, ddy), "x") if ddx
                else lin_derive(self.derived(ddx, ddy - 1), "y"))
        return self.cache[(ddx, ddy)]


def _ref_eliminate(p, q, slot):
    a, b = p[slot], q[slot]
    g = gcd(a, b)
    a, b = divexact(a, g), divexact(b, g)
    out = {s: c * b for s, c in p.items()}
    for s, c in q.items():
        add_term(out, s, -(c * a))
    return out


def _ref_reduce(p, eqs, ranking):
    work = {s: c for s, c in p.items() if not c.is_zero()}
    while True:
        reducible = [(s, e) for s in work for e in eqs if e.lead.divides(s)]
        if not reducible:
            return work
        best = max((s for s, _ in reducible), key=ranking.key)
        e = next(e for s, e in reducible if s == best)
        d = e.derived(best.dx - e.lead.dx, best.dy - e.lead.dy)
        work = _ref_eliminate(work, d, best)


class ReferenceCompletion(NamedTuple):
    equations: list
    leads: list
    parametric: list
    crosses: int    # cross-derivatives formed


def reference_complete(system, ranking) -> ReferenceCompletion:
    """Pairwise completion: every pair of equations in one unknown has its
    cross-derivative reduced, lowest least common derivative first."""
    key = ranking.key
    eqs, queue, pairs = [], [dict(e) for e in system], []
    counter = itertools.count()
    crosses = 0
    while queue or pairs:
        if queue:
            h = _ref_reduce(queue.pop(0), eqs, ranking)
        else:
            pair = min(pairs)
            pairs.remove(pair)
            a, b = pair[1], pair[2]
            lcm = Slot(a.lead.unknown, max(a.lead.dx, b.lead.dx),
                       max(a.lead.dy, b.lead.dy))
            crosses += 1
            h = _ref_reduce(_ref_eliminate(
                a.derived(lcm.dx - a.lead.dx, lcm.dy - a.lead.dy),
                b.derived(lcm.dx - b.lead.dx, lcm.dy - b.lead.dy), lcm),
                eqs, ranking)
        if not h:
            continue
        lead = max(h, key=key)
        new = _RefEq(reference_primitive(h, lead), lead, next(counter))
        doomed = [e for e in eqs if lead.divides(e.lead)]
        for e in doomed:
            eqs.remove(e)
            queue.append(e.terms)
        pairs = [p for p in pairs if p[1] not in doomed and p[2] not in doomed]
        eqs.append(new)
        for e in eqs:
            if e is not new and any(lead.divides(s) for s in e.terms
                                    if s != e.lead):
                others = [f for f in eqs if f is not e]
                e.terms = reference_primitive(
                    _ref_reduce(e.terms, others, ranking), e.lead)
                e.cache = {(0, 0): e.terms}
        for e in eqs:
            if e is not new and e.lead.unknown == lead.unknown:
                lcm = Slot(lead.unknown, max(e.lead.dx, lead.dx),
                           max(e.lead.dy, lead.dy))
                pairs.append(((key(lcm), e.ident, new.ident), e, new))
    eqs.sort(key=lambda e: key(e.lead))
    leads = [e.lead for e in eqs]
    parametric = []
    for unk in (XI, ETA):
        mine = [s for s in leads if s.unknown == unk]
        ax = min((s.dx for s in mine if s.dy == 0), default=None)
        ay = min((s.dy for s in mine if s.dx == 0), default=None)
        if ax is None or ay is None:
            raise InternalInvariantError("not finite-dimensional")
        parametric += [Slot(unk, i, j) for i in range(ax) for j in range(ay)
                       if not any(l.divides(Slot(unk, i, j)) for l in mine)]
    return ReferenceCompletion([e.terms for e in eqs], leads,
                               sorted(parametric, key=key), crosses)


# -- the bench inputs -------------------------------------------------------------

BENCH_DATA = pathlib.Path(__file__).resolve().parent.parent / "bench" / "data"


@functools.lru_cache(maxsize=None)
def bench_odes():
    """(id, ode, translated ode) for every input of the corpus, controls and
    rational bench files.  The translation x -> x + b, y -> y + d is drawn
    from {1, 2}^2 by one seeded generator; b is 0 for an input marked
    ``"shift_x": false``.  A translation keeps the symmetry algebra."""
    rng = random.Random(1)
    x, y = RatFunc.variable("x"), RatFunc.variable("y")
    out = []
    for name in ("corpus", "controls", "rational"):
        data = json.loads((BENCH_DATA / (name + ".json")).read_text(
            encoding="utf-8"))
        for item in data["inputs"]:
            b, d = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            if item.get("shift_x") is False:
                b = 0
            ode = parse_ode(item["text"])
            shifted = substitute(substitute(ode.f, "x", x + b), "y", y + d)
            out.append((item["id"], ode, OdeSpec(ode.n, shifted)))
    return tuple(out)


def bench_texts() -> List[str]:
    """Every equation and transformation text of the bench files, and the
    printed form of each translated equation of ``bench_odes``."""
    texts = [print_ode(shifted) for _, _, shifted in bench_odes()]
    for name in ("corpus", "controls", "rational", "oracle"):
        data = json.loads((BENCH_DATA / (name + ".json")).read_text(
            encoding="utf-8"))
        texts += [item[key] for item in data["inputs"]
                  for key in ("text", "psi", "phi", "image") if key in item]
    return texts


# -- the character-loop tokenizer ------------------------------------------------
#
# The tokenizer ``parsing._tokenize`` replaced, kept as its reference.  It
# tests ``str.isdigit``, which also holds for superscripts such as "²" that
# ``int`` rejects; the two agree on every text without such a character.


def reference_tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    i, nchars = 0, len(text)
    while i < nchars:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < nchars and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < nchars and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch == "'":
            j = i
            while j < nchars and text[j] == "'":
                j += 1
            out.append(("primes", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()=":
            out.append((ch, ch, i))
            i += 1
            continue
        raise OdeSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("end", "", nchars))
    return out


# The five reference equations exercised throughout the suite:
# a maximal-symmetry input, three images of constant-coefficient linear
# equations under u = e^y, and a non-linearizable control.  "exp_image3"
# comes from u''' - u' = 0, whose roots {-1, 0, 1} form an arithmetic
# progression, so it is trivial (m = 7); test_criterion_03_actual_behavior
# relies on it.  "cc_image3" comes from u''' - u'' - 2*u' = 0, roots
# {-1, 0, 2}, the one genuine constant-coefficient input (m = 5);
# acceptance criterion 3 relies on it.
REFERENCE_INPUTS = {
    "max2": "y'' = 0",
    "exp_image2": "y'' + (y')^2 = 0",
    "exp_image3": "y''' + 3*y'*y'' + (y')^3 - y' = 0",
    "cc_image3": "y''' + 3*y'*y'' + (y')^3 - (y'' + (y')^2) - 2*y' = 0",
    "negative2": "y'' = y^2",
}


@pytest.fixture(scope="session")
def reference_reports():
    return {key: analyze(text) for key, text in REFERENCE_INPUTS.items()}


@pytest.fixture(scope="session")
def corpus_reports():
    """One full analysis per oracle-corpus instance."""
    return [(inst, analyze(inst.ode)) for inst in default_corpus()]
