"""Completion of linear PDE systems to an involutive (passive) form.

The determining equations form a linear homogeneous system in two unknown
functions of (x, y) with polynomial coefficients.  This module brings such a
system to a canonical solved form under one ranking, ``RANKING``: the int
order of the derivative slots, the packed ints of ``determining``.  A Riquier
ranking must compare two derivatives of the same unknown the same way for
every unknown; int order does, by comparing the multi-index before the
unknown tag.  In the completed form:

* every equation is primitive with respect to its highest slot, the lead
  (``primitive``): solving it for the lead divides by the lead
  coefficient,
* no equation contains any derivative of another equation's leading slot,
* every cross-derivative (integrability condition) of two equations with
  leading slots on the same unknown reduces to zero.

The arithmetic is fraction-free, as in the Maple package Janet (Blinkov,
Cid, Gerdt, Plesken and Robertz, CASC 2003): reduction eliminates a slot by
differentiating the equation whose lead divides it and subtracting with the
polynomial cofactors that cancel the slot, so a normal form is only defined
up to a nonzero factor in Q[x, y], and each new equation is made primitive
once.  The input needs no canonical form: the determining system comes as
collected, with no equation scaled or deduplicated, since every queued
equation is reduced before it is inserted, and a duplicate, or any multiple
of an equation already inserted, reduces to zero.  Since the ranking is
stable under differentiation and every non-leading slot ranks below the
lead, each step replaces a slot by strictly lower ones, so normal forms
terminate.  Completion is the linear Buchberger loop, run as one worklist:
it takes a queued equation first and otherwise the lowest cross-derivative
pair (by the rank of the pair's least common derivative, then by age), and
fully reduces it.  Of the queued equations it takes the one whose highest
slot ranks lowest, ties going by arrival: Buchberger's normal selection
strategy (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube,
please, or selection strategies in the Buchberger algorithm", ISSAC 1991).
Taken first in, first out, a low equation inserted late would requeue the
higher ones inserted before it.
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

Ownership in the inner loop: ``reduce`` copies its argument once and owns
that working copy, and ``_eliminate`` writes each step into it in place.
``_cross`` hands ``_eliminate`` a copy of the cached prolongation, so no
equation's terms or cached derivatives are ever written.  The divisor
coefficient of an elimination is the lead coefficient of a primitive
equation, which is monic, so when it divides the other coefficient it is
their gcd and ``polys.cofactors`` takes no gcd; nor when the other
coefficient divides it, or either is constant.  ``primitive`` takes the
content and every quotient by it from one ``polys.content`` search.

The parametric slots (those outside the cone of the leading slots) index the
free Taylor data of the solution space; their count is its dimension.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Sequence, Tuple

from .determining import (DX, DY, ETA, GUARDS, XI, LinDiffPoly, divides,
                          fields, slot)
from .errors import InternalInvariantError
from .polys import cofactors, content


RANKING = "order,xdeg,xi<eta"  # int order: total order, dx, then xi < eta


# -- single equations -----------------------------------------------------------


def primitive(eq: LinDiffPoly, top: int) -> LinDiffPoly:
    """eq divided by its content in Q[x, y] (``polys.content``), scaled so
    that eq[top] has leading coefficient 1.

    Every nonzero multiple of eq by a rational function has the same
    primitive form, so it is a canonical representative of the equation.
    The scaling is by integers: the leading coefficient of the quotient at
    top is its leading numerator over its denominator.
    """
    out = dict(zip(eq, content(eq.values())[1]))
    ln, ld = out[top].leading_numerator(), out[top].den
    return out if ln == ld else {s: c.scaled(ld, ln) for s, c in out.items()}


def lin_derive(eq: LinDiffPoly, var: str) -> LinDiffPoly:
    """Differentiate an equation with respect to x or y (product rule), in
    one pass: each coefficient c adds its derivative at its own slot, only
    when var occurs in c, and itself at the shifted slot."""
    out: LinDiffPoly = {}
    step = DX if var == "x" else DY
    get = out.get
    for s, c in eq.items():
        if var in c.vars:
            old = get(s)
            d = c.derivative(var) if old is None else old + c.derivative(var)
            if d:
                out[s] = d
            else:
                del out[s]
        t = s + step
        old = get(t)
        if old is None:
            out[t] = c
        else:
            v = old + c
            if v:
                out[t] = v
            else:
                del out[t]
    return out


class _Eq:
    """Completion-internal equation: primitive form plus derivative cache."""

    __slots__ = ("terms", "lead", "ident", "_dcache")

    def __init__(self, terms: LinDiffPoly, lead: int, ident: int):
        self.terms = terms
        self.lead = lead
        self.ident = ident
        self._dcache: Dict[int, LinDiffPoly] = {0: terms}

    def derived(self, d: int) -> LinDiffPoly:
        """The derivative that takes the lead to the slot lead + d."""
        got = self._dcache.get(d)
        if got is None:
            step, var = (DX, "x") if fields(d)[1] else (DY, "y")
            got = self._dcache[d] = lin_derive(self.derived(d - step), var)
        return got

    def invalidate(self):
        self._dcache = {0: self.terms}


def _eliminate(p: LinDiffPoly, q: LinDiffPoly, s: int) -> None:
    """Replace p, in place, by (b/g) p - (a/g) q with a = p[s], b = q[s]
    and g = gcd(a, b), the cofactors of ``polys.cofactors``; a constant a
    or b gives g = 1 and needs no call.

    The cofactors cancel s without dividing by a polynomial.  q derives
    from a primitive equation, and differentiation carries its lead
    coefficient unchanged to the slot lead + d, so b is that coefficient:
    it has leading coefficient 1, like g, and a constant b/g is 1.  A
    constant a/g, its numerator over its denominator, scales each slot of
    q inside the subtraction.
    """
    a, b = p[s], q[s]
    if not (a.is_const() or b.is_const()):
        _, a, b = cofactors(a, b)
    if not b.is_const():
        for t, c in p.items():
            p[t] = c * b
    k = (-a.leading_numerator(), a.den) if a.is_const() else None
    for t, c in q.items():
        old = p.get(t)
        if k is not None:
            new = c.scaled(*k) if old is None else old.add_scaled(c, *k)
        else:
            new = -(c * a) if old is None else old - c * a
        if new:
            p[t] = new
        else:
            del p[t]


def reduce(p: LinDiffPoly, eqs: Sequence[_Eq]) -> LinDiffPoly:
    """Full normal form of p modulo the equations, up to a factor in Q[x, y]:
    each step eliminates the highest slot a lead divides, by the first such.

    p is left as it is: the elimination steps write into a copy."""
    work = {s: c for s, c in p.items() if not c.is_zero()}
    while True:
        # one pass: a slot is tested against the leads only if it ranks
        # above the highest reducible slot found so far
        s = None
        for t in work:
            if s is None or t > s:
                for e in eqs:
                    if not (t - e.lead) & GUARDS:
                        s, by = t, e
                        break
        if s is None:
            return work
        _eliminate(work, by.derived(s - by.lead), s)
        if s in work:  # the derivative leads at s, so the cofactors cancel it
            raise InternalInvariantError("reduction failed to eliminate a slot")


def _lcm(s: int, t: int) -> int:
    """Least common derivative of two slots of one unknown."""
    (u, sx, sy), (_, tx, ty) = fields(s), fields(t)
    return slot(u, max(sx, tx), max(sy, ty))


def _cross(a: _Eq, b: _Eq) -> LinDiffPoly:
    """Cofactor difference of the two prolongations to the least common
    derivative, formed in a copy of a's prolongation."""
    lcm = _lcm(a.lead, b.lead)
    out = dict(a.derived(lcm - a.lead))
    _eliminate(out, b.derived(lcm - b.lead), lcm)
    return out


def _chain_redundant(a: _Eq, b: _Eq, eqs: Sequence[_Eq],
                     pairs: Sequence[Tuple[tuple, _Eq, _Eq]]) -> bool:
    """Buchberger's chain criterion for the pair (a, b): some current
    equation c has a lead dividing their least common derivative L, meets
    a and b at derivatives strictly below L, and neither (a, c) nor (b, c)
    is still pending (see the module docstring)."""
    lcm = _lcm(a.lead, b.lead)
    pending = None
    for c in eqs:
        if (c is a or c is b or not divides(c.lead, lcm)
                or _lcm(a.lead, c.lead) == lcm
                or _lcm(b.lead, c.lead) == lcm):
            continue
        if pending is None:
            pending = {(i, j) for (_, i, j), _, _ in pairs}
        if all((min(e.ident, c.ident), max(e.ident, c.ident)) not in pending
               for e in (a, b)):
            return True
    return False


class InvolutiveSystem:
    def __init__(self, eqs: List[_Eq], parametric: List[int]):
        self.eqs = eqs             # primitive, inter-reduced, sorted by lead
        self.parametric = parametric

    @property
    def equations(self) -> List[LinDiffPoly]:
        return [e.terms for e in self.eqs]

    @property
    def leads(self) -> List[int]:
        return [e.lead for e in self.eqs]

    @property
    def dimension(self) -> int:
        return len(self.parametric)

    def max_parametric_order(self) -> int:
        return max((sum(fields(s)[1:]) for s in self.parametric), default=0)


def _parametric_slots(leads: Sequence[int]) -> List[int]:
    out = []
    for unk in (XI, ETA):
        mine = [(dx, dy) for u, dx, dy in map(fields, leads) if u == unk]
        ax = min((dx for dx, dy in mine if dy == 0), default=None)
        ay = min((dy for dx, dy in mine if dx == 0), default=None)
        if ax is None or ay is None:
            raise InternalInvariantError(
                "symmetry algebra is not finite-dimensional; "
                "this cannot happen for equations of order two or higher")
        for i in range(ax):
            for j in range(ay):
                if not any(lx <= i and ly <= j for lx, ly in mine):
                    out.append(slot(unk, i, j))
    return sorted(out)


def complete(system: Sequence[LinDiffPoly]) -> InvolutiveSystem:
    """Complete a determining system to its canonical involutive form."""
    eqs: List[_Eq] = []
    # (highest slot, arrival, equation): arrivals are distinct,
    # so the heap never compares two equations
    queue = [(max(e), k, e) for k, e in enumerate(system) if e]
    heapq.heapify(queue)
    arrival = itertools.count(len(system))
    # ((least common derivative, ident, ident), eq, eq): the triples are
    # distinct, so min never compares two equations
    pairs: List[Tuple[tuple, _Eq, _Eq]] = []
    counter = itertools.count()

    while queue or pairs:
        if queue:
            h = reduce(heapq.heappop(queue)[2], eqs)
        else:
            pair = min(pairs)
            pairs.remove(pair)
            if _chain_redundant(pair[1], pair[2], eqs, pairs):
                continue
            h = reduce(_cross(pair[1], pair[2]), eqs)
        if not h:
            continue
        lead = max(h)
        new = _Eq(primitive(h, lead), lead, next(counter))
        # drop equations whose lead became reducible; they re-enter the queue
        doomed = [e for e in eqs if not (e.lead - lead) & GUARDS]
        if doomed:
            for e in doomed:
                eqs.remove(e)
                heapq.heappush(queue, (e.lead, next(arrival), e.terms))
            pairs = [(r, a, b) for r, a, b in pairs
                     if a not in doomed and b not in doomed]
        eqs.append(new)
        # keep tails fully reduced: rewrite tails containing derivatives of
        # the new lead
        for e in eqs:
            if e is not new and any(not (s - lead) & GUARDS for s in e.terms
                                    if s != e.lead):
                others = [f for f in eqs if f is not e]
                e.terms = primitive(reduce(e.terms, others), e.lead)
                e.invalidate()
        for e in eqs:
            if e is not new and fields(e.lead)[0] == fields(lead)[0]:
                pairs.append(((_lcm(e.lead, lead), e.ident, new.ident),
                              e, new))

    eqs.sort(key=lambda e: e.lead)
    return InvolutiveSystem(eqs, _parametric_slots([e.lead for e in eqs]))

