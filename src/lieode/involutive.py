"""Completion of linear PDE systems to an involutive (passive) form.

The determining equations form a linear homogeneous system in two unknown
functions of (x, y) with polynomial coefficients.  This module brings such a
system to a canonical solved form with respect to a Riquier ranking of the
derivative slots:

* every equation is primitive with respect to its highest slot, the lead
  (``determining.primitive``): solving it for the lead divides by the lead
  coefficient,
* no equation contains any derivative of another equation's leading slot,
* every cross-derivative (integrability condition) of two equations with
  leading slots on the same unknown reduces to zero.

The arithmetic is fraction-free, as in the Maple package Janet (Blinkov,
Cid, Gerdt, Plesken and Robertz, CASC 2003): reduction eliminates a slot by
differentiating the equation whose lead divides it and subtracting with the
polynomial cofactors that cancel the slot, so a normal form is only defined
up to a nonzero factor in Q[x, y], and each new equation is made primitive
once.  Since the ranking is stable under differentiation and every
non-leading slot ranks below the lead, each step replaces a slot by strictly
lower ones, so normal forms terminate.  Completion is the linear
Buchberger loop, run as one worklist: it takes a queued equation first and
otherwise the lowest cross-derivative pair (by the rank of the pair's least
common derivative, then by age), and fully reduces it.  Of the queued
equations it takes the one whose highest slot ranks lowest, ties going by
arrival: Buchberger's normal selection strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, "One sugar cube, please, or selection strategies in
the Buchberger algorithm", ISSAC 1991).  Taken first in, first out, a low
equation inserted late would requeue the higher ones inserted before it.
A nonzero result is inserted; any equation whose lead is a derivative of
the new lead is requeued, and the survivors' tails are re-reduced.  Each
insertion strictly enlarges the cone of leading slots, so Dickson's lemma
bounds the number of insertions and the loop terminates.  Like a reduced Groebner
basis, the completed system is unique for the ranking, each equation up to
the scale that ``primitive`` fixes, so neither the input order nor the
order of the worklist changes it.

A popped pair (a, b) with least common derivative L is skipped, without
forming its cross-derivative, by Buchberger's chain criterion in the form
of Gebauer and Moeller (J. Symb. Comp. 6, 1988), which holds over rings of
differential operators (Kandri-Rody and Weispfenning, J. Symb. Comp. 9,
1990): some current equation c other than a and b, in the same unknown,
has a lead dividing L, the least common derivatives of (a, c) and (b, c)
both differ from L, and neither pair is still pending.  Soundness: over
the rational functions, with each equation divided by its lead
coefficient, derivations commute, so the cross-derivatives satisfy
S(a, b) = d^(L - L_ac) S(a, c) - d^(L - L_bc) S(b, c) exactly, with L_ac
and L_bc the two least common derivatives.  Call a representation of an
expression as a sum of derivatives of the final equations standard below
L when each term's lead ranks below L.  A processed pair reduces to zero
or to an inserted equation, so its cross-derivative is standard below its
least common derivative in terms of the equations current then.  Every
equation ever current has a standard representation up to its own lead in
terms of the final system: a requeued one reduces to zero or to an
inserted equation, and a tail rewrite subtracts lower derivatives.  Since
the ranking is stable under differentiation, substituting those keeps
representations standard below L.  Both pairs (a, c) and (b, c) were
popped earlier, and L_ac and L_bc divide L strictly, so they rank below
it.  By induction on that rank both are standard below their least common
derivatives, processed or skipped themselves, and the identity makes
S(a, b) standard below L.  The strict conditions rule out two pairs each
skipped on account of the other; with them, the pending test also follows
from the pop order, and is kept as a guard.  Every pair of the final
system is popped, so all its cross-derivatives reduce to zero.  Checking
c only against the current equation list keeps doomed equations out.

The parametric slots (those outside the cone of the leading slots) index the
free Taylor data of the solution space; their count is its dimension.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .determining import ETA, XI, LinDiffPoly, Slot, add_term, primitive
from .errors import InternalInvariantError
from .polys import divexact, gcd


@dataclasses.dataclass(frozen=True)
class Ranking:
    """Total order on slots given by a key function, highest key = highest slot.

    A Riquier ranking must compare two derivatives of the same unknown the
    same way for every unknown; both shipped rankings guarantee that by
    comparing the multi-index before the unknown tag.
    """

    name: str
    key: Callable[[Slot], tuple]


def default_ranking() -> Ranking:
    """Order by total derivative order, then x-degree, then xi < eta."""
    return Ranking("order,xdeg,xi<eta",
                   lambda s: (s.order, s.dx, 0 if s.unknown == XI else 1))


def alt_ranking() -> Ranking:
    """Order by total order, then y-degree, then eta < xi (for cross-checks)."""
    return Ranking("order,ydeg,eta<xi",
                   lambda s: (s.order, s.dy, 0 if s.unknown == ETA else 1))


# -- single equations -----------------------------------------------------------


def lin_derive(eq: LinDiffPoly, var: str) -> LinDiffPoly:
    """Differentiate an equation with respect to x or y (product rule)."""
    out: LinDiffPoly = {}
    step = (1, 0) if var == "x" else (0, 1)
    for s, c in eq.items():
        add_term(out, s, c.derivative(var))
        add_term(out, s.derive(*step), c)
    return out


class _Eq:
    """Completion-internal equation: primitive form plus derivative cache."""

    __slots__ = ("terms", "lead", "ident", "_dcache")

    def __init__(self, terms: LinDiffPoly, lead: Slot, ident: int):
        self.terms = terms
        self.lead = lead
        self.ident = ident
        self._dcache: Dict[Tuple[int, int], LinDiffPoly] = {(0, 0): terms}

    def derived(self, ddx: int, ddy: int) -> LinDiffPoly:
        key = (ddx, ddy)
        got = self._dcache.get(key)
        if got is not None:
            return got
        if ddx:
            base = self.derived(ddx - 1, ddy)
            val = lin_derive(base, "x")
        else:
            base = self.derived(ddx, ddy - 1)
            val = lin_derive(base, "y")
        self._dcache[key] = val
        return val

    def invalidate(self):
        self._dcache = {(0, 0): self.terms}


def _eliminate(p: LinDiffPoly, q: LinDiffPoly, slot: Slot) -> LinDiffPoly:
    """(b/g) p - (a/g) q with a = p[slot], b = q[slot] and g = gcd(a, b).

    The cofactors cancel slot without dividing by a polynomial.  q derives
    from a primitive equation, so b, like g, has leading coefficient 1, and
    a constant b/g is 1.  A constant a/g, its numerator over its
    denominator, scales each slot of q inside the subtraction.
    """
    a, b = p[slot], q[slot]
    g = gcd(a, b)
    if not g.is_const():
        a, b = divexact(a, g), divexact(b, g)
    out = dict(p) if b.is_const() else {s: c * b for s, c in p.items()}
    k = (-a.leading_numerator(), a.den) if a.is_const() else None
    for s, c in q.items():
        old = out.get(s)
        if k is not None:
            new = c.scaled(*k) if old is None else old.add_scaled(c, *k)
        else:
            new = -(c * a) if old is None else old - c * a
        if new:
            out[s] = new
        else:
            del out[s]
    return out


def reduce(p: LinDiffPoly, eqs: Sequence[_Eq], ranking: Ranking) -> LinDiffPoly:
    """Full normal form of p modulo the equations, up to a factor in Q[x, y]."""
    work = {s: c for s, c in p.items() if not c.is_zero()}
    while True:
        best = None
        best_eq = None
        for s in work:
            for e in eqs:
                if e.lead.divides(s):
                    if best is None or ranking.key(s) > ranking.key(best):
                        best, best_eq = s, e
                    break
        if best is None:
            return work
        d = best_eq.derived(best.dx - best_eq.lead.dx, best.dy - best_eq.lead.dy)
        work = _eliminate(work, d, best)
        if best in work:  # d leads at `best`, so the cofactors cancel it
            raise InternalInvariantError("reduction failed to eliminate a slot")


def _lcm(s: Slot, t: Slot) -> Slot:
    """Least common derivative of two slots of one unknown."""
    return Slot(s.unknown, max(s.dx, t.dx), max(s.dy, t.dy))


def _cross(a: _Eq, b: _Eq) -> LinDiffPoly:
    """Cofactor difference of the two prolongations to the least common
    derivative."""
    lcm = _lcm(a.lead, b.lead)
    da = a.derived(lcm.dx - a.lead.dx, lcm.dy - a.lead.dy)
    db = b.derived(lcm.dx - b.lead.dx, lcm.dy - b.lead.dy)
    return _eliminate(da, db, lcm)


def _chain_redundant(a: _Eq, b: _Eq, eqs: Sequence[_Eq],
                     pairs: Sequence[Tuple[tuple, _Eq, _Eq]]) -> bool:
    """Buchberger's chain criterion for the pair (a, b): some current
    equation c has a lead dividing their least common derivative L, meets
    a and b at derivatives strictly below L, and neither (a, c) nor (b, c)
    is still pending (see the module docstring)."""
    lcm = _lcm(a.lead, b.lead)
    pending = None
    for c in eqs:
        if (c is a or c is b or not c.lead.divides(lcm)
                or _lcm(a.lead, c.lead) == lcm
                or _lcm(b.lead, c.lead) == lcm):
            continue
        if pending is None:
            pending = {(i, j) for (_, i, j), _, _ in pairs}
        if all((min(e.ident, c.ident), max(e.ident, c.ident)) not in pending
               for e in (a, b)):
            return True
    return False


@dataclasses.dataclass
class InvolutiveSystem:
    ranking: Ranking
    eqs: List[_Eq]             # primitive, inter-reduced, sorted by lead
    parametric: List[Slot]

    @property
    def equations(self) -> List[LinDiffPoly]:
        return [e.terms for e in self.eqs]

    @property
    def leads(self) -> List[Slot]:
        return [e.lead for e in self.eqs]

    @property
    def dimension(self) -> int:
        return len(self.parametric)

    def max_parametric_order(self) -> int:
        return max((s.order for s in self.parametric), default=0)


def _parametric_slots(leads: Sequence[Slot], ranking: Ranking) -> List[Slot]:
    out = []
    for unk in (XI, ETA):
        mine = [s for s in leads if s.unknown == unk]
        ax = min((s.dx for s in mine if s.dy == 0), default=None)
        ay = min((s.dy for s in mine if s.dx == 0), default=None)
        if ax is None or ay is None:
            raise InternalInvariantError(
                "symmetry algebra is not finite-dimensional; "
                "this cannot happen for equations of order two or higher")
        for i in range(ax):
            for j in range(ay):
                s = Slot(unk, i, j)
                if not any(l.divides(s) for l in mine):
                    out.append(s)
    return sorted(out, key=ranking.key)


def complete(system: Sequence[LinDiffPoly],
             ranking: Optional[Ranking] = None) -> InvolutiveSystem:
    """Complete a determining system to its canonical involutive form."""
    if ranking is None:
        ranking = default_ranking()
    key = ranking.key

    eqs: List[_Eq] = []
    # (rank of the highest slot, arrival, equation): arrivals are distinct,
    # so the heap never compares two equations
    queue: List[Tuple[tuple, int, LinDiffPoly]] = []
    arrival = itertools.count()

    def enqueue(eq: LinDiffPoly) -> None:
        heapq.heappush(queue, (key(max(eq, key=key)), next(arrival), eq))

    for e in system:
        if e:
            enqueue(dict(e))
    # ((rank of the least common derivative, ident, ident), eq, eq): the
    # ranks are distinct, so min never compares two equations
    pairs: List[Tuple[tuple, _Eq, _Eq]] = []
    counter = itertools.count()

    while queue or pairs:
        if queue:
            h = reduce(heapq.heappop(queue)[2], eqs, ranking)
        else:
            pair = min(pairs)
            pairs.remove(pair)
            if _chain_redundant(pair[1], pair[2], eqs, pairs):
                continue
            h = reduce(_cross(pair[1], pair[2]), eqs, ranking)
        if not h:
            continue
        lead = max(h, key=key)
        new = _Eq(primitive(h, lead), lead, next(counter))
        # drop equations whose lead became reducible; they re-enter the queue
        doomed = [e for e in eqs if lead.divides(e.lead)]
        for e in doomed:
            eqs.remove(e)
            enqueue(e.terms)
        pairs = [(r, a, b) for r, a, b in pairs
                 if a not in doomed and b not in doomed]
        eqs.append(new)
        # keep tails fully reduced: rewrite tails containing derivatives of
        # the new lead
        for e in eqs:
            if e is not new and any(lead.divides(s) for s in e.terms
                                    if s != e.lead):
                others = [f for f in eqs if f is not e]
                e.terms = primitive(reduce(e.terms, others, ranking), e.lead)
                e.invalidate()
        for e in eqs:
            if e is not new and e.lead.unknown == lead.unknown:
                pairs.append(((key(_lcm(e.lead, lead)), e.ident, new.ident),
                              e, new))

    eqs.sort(key=lambda e: key(e.lead))
    return InvolutiveSystem(ranking, eqs,
                            _parametric_slots([e.lead for e in eqs], ranking))


def audit_involutive(inv: InvolutiveSystem,
                     original: Optional[Sequence[LinDiffPoly]] = None) -> bool:
    """Post-hoc passivity check: cross-derivatives and originals reduce to zero."""
    eqs, leads = inv.eqs, inv.leads
    for a, b in itertools.combinations(eqs, 2):
        if a.lead.unknown != b.lead.unknown:
            continue
        if reduce(_cross(a, b), eqs, inv.ranking):
            return False
    if original is not None:
        for eq in original:
            if reduce(eq, eqs, inv.ranking):
                return False
    for e in eqs:
        for s in e.terms:
            if s != e.lead and any(l.divides(s) for l in leads):
                return False
    return True
