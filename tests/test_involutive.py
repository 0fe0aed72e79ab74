"""Completion to involutive form: rankings, reduction, dimensions, audits.

The second ranking is no engine path: it is int order on the mirrored
system (``conftest.mirror``), and the mirrored inputs check it."""
import itertools
import random
import time

import pytest

from lieode import analyze
from lieode import involutive, polys
from lieode.determining import determining_system, fields
from lieode.errors import InternalInvariantError
from lieode.involutive import (_cross, _Eq, complete, lin_derive, primitive,
                               reduce)
from lieode.liealgebra import CASE_NONE
from lieode.parsing import parse_ode
from lieode.polys import ZERO, MPoly, try_divexact
from lieode.polys import gcd as poly_gcd
from lieode.ratfunc import RatFunc

from conftest import (ETA, XI, Slot, audit_involutive, bench_odes,
                      bench_ranking_cases, default_key, int_keyed, mirror,
                      mirror_key, mirror_slot, normal_form,
                      ranking_case_system, slot_keyed, substitute_generator,
                      to_int, to_slot)

ONE = MPoly.const(1)
X = MPoly.variable("x")
Y = MPoly.variable("y")


def all_slots(max_order):
    return [Slot(u, i, j)
            for u in (XI, ETA)
            for i in range(max_order + 1)
            for j in range(max_order + 1 - i)]


# Each ranking as keys on ``Slot``: the reference tuple key, and int order
# of the packed slots, mirrored for the second ranking
RANKINGS = [[default_key, to_int],
            [mirror_key, lambda s: mirror_slot(to_int(s))]]


# -- rankings ---------------------------------------------------------------------


@pytest.mark.parametrize("ranking", RANKINGS)
def test_ranking_is_total_and_stable_under_differentiation(ranking):
    # Riquier conditions, checked exhaustively up to order 4, on both keys:
    # keys are distinct, and s < t implies ds < dt for both derivations.
    slots = all_slots(4)
    for key in ranking:
        keys = [key(s) for s in slots]
        assert len(set(keys)) == len(keys)
        for s, t in itertools.combinations(slots, 2):
            if key(s) < key(t):
                for step in ((1, 0), (0, 1)):
                    assert key(s.derive(*step)) < key(t.derive(*step))


@pytest.mark.parametrize("ranking", RANKINGS)
def test_ranking_compares_unknowns_last(ranking):
    # comparison of two derivative operators must not depend on the
    # unknown, under both keys
    for key, (s, t) in itertools.product(
            ranking, itertools.combinations(all_slots(3), 2)):
        if s.unknown != t.unknown:
            continue
        swapped = key(Slot(XI if s.unknown == ETA else ETA, s.dx, s.dy))
        # same multi-index, other unknown: ordering against t is preserved
        if (key(s) < key(t)) and (s.dx, s.dy) != (t.dx, t.dy):
            other_t = Slot(XI if t.unknown == ETA else ETA, t.dx, t.dy)
            assert swapped < key(other_t)


def test_lin_derive_product_rule():
    eq = int_keyed({Slot(XI, 0, 0): X * Y})
    d = lin_derive(eq, "x")
    assert slot_keyed(d) == {Slot(XI, 0, 0): Y, Slot(XI, 1, 0): X * Y}


# -- completion of reference systems ------------------------------------------------

DIMENSION_ORACLE = [
    # [DERIVED]: frozen from independent runs under both rankings
    ("y'' = 0", 8),
    ("y'' = y^2", 2),
    ("y'' + (y')^2 = 0", 8),
    ("y'' + y'/x = 0", 8),
    ("y''' + y*y' = 0", 2),
    ("y''' + y*y'' = 0", 2),
    ("y'''' = 0", 8),
]


@pytest.mark.parametrize("text,dim", DIMENSION_ORACLE)
def test_solution_dimensions(text, dim):
    inv = complete(determining_system(parse_ode(text)))
    assert inv.dimension == dim


@pytest.mark.parametrize("text,dim", DIMENSION_ORACLE)
def test_alternate_ranking_same_dimension(text, dim):
    inv = complete(mirror(determining_system(parse_ode(text))))
    assert inv.dimension == dim


def test_free_particle_completion_shape():
    # leads and parametric set frozen from a hand derivation  [DERIVED]
    inv = complete(determining_system(parse_ode("y'' = 0")))
    assert [to_slot(s).label() for s in inv.leads] == [
        "xi_yy", "xi_xy", "xi_xx", "eta_xx", "eta_yyy", "eta_xyy"]
    assert {to_slot(s).label() for s in inv.parametric} == {
        "xi", "xi_x", "xi_y",
        "eta", "eta_x", "eta_y", "eta_xy", "eta_yy"}
    assert inv.max_parametric_order() == 2


def test_completed_system_still_annihilates_generators():
    inv = complete(determining_system(parse_ode("y'' = y^2")))
    for xi, eta in [(RatFunc(ONE), RatFunc(ZERO)),
                    (RatFunc(X), RatFunc.const(-2) * RatFunc(Y))]:
        for eq in inv.equations:
            assert substitute_generator(slot_keyed(eq), xi, eta).is_zero()


@pytest.mark.parametrize("text", [t for t, _ in DIMENSION_ORACLE])
def test_involutivity_audit(text):
    detsys = determining_system(parse_ode(text))
    inv = complete(detsys)
    assert audit_involutive(inv, detsys)


# The completed system is unique, so the order in which completion meets
# equations and pairs cannot change it.  The first input needs neither of
# completion's rewrite steps; the other three requeue equations whose lead
# became reducible (1, 12 and 6 times) and rewrite tails (4, 7 and 1
# times)  [DERIVED]
CANONICAL_INPUTS = {
    "linearizable-2nd-order": "y'' + (y')^2 = 0",
    "rational-01": "y''' + ((y')^5 + 4*(y')^4 - 2*(y')^2*y'' + 6*(y')^3"
                   " - 3*(y'')^2 - 4*y'*y'' + 4*(y')^2 - 2*y'' + y')"
                   "/(y' + 1) = 0",
    "painleve-1": "y''=6*y^2+x",
    "fourth-order-y^2": "y''''=y^2",
}


def _assert_same_completion(inv, other):
    assert inv.equations == other.equations
    assert inv.leads == other.leads
    assert inv.parametric == other.parametric


@pytest.mark.parametrize("text", list(CANONICAL_INPUTS.values()),
                         ids=list(CANONICAL_INPUTS))
def test_completion_is_canonical_under_input_order(text):
    detsys = determining_system(parse_ode(text))
    ref = complete(detsys)
    rng = random.Random(7)
    for _ in range(3):
        eqs = list(detsys)
        rng.shuffle(eqs)
        _assert_same_completion(complete(eqs), ref)


def test_reduce_gives_normal_forms():
    inv = complete(determining_system(parse_ode("y'' = 0")))
    # every original equation reduces to zero
    for eq in determining_system(parse_ode("y'' = 0")):
        assert reduce(eq, inv.eqs) == {}
        assert normal_form(inv, slot_keyed(eq)) == {}
    # a lead slot's normal form carries no reducible slots
    nf = reduce(int_keyed({Slot(ETA, 3, 1): ONE}), inv.eqs)
    for s in slot_keyed(nf):
        assert not any(to_slot(l).divides(s) for l in inv.leads)


@pytest.mark.parametrize("text", ["y'' + y'/x = 0", "y''' + y*y'' = 0",
                                  "y'' + (y')^2/(x^2 + y) = 0"])
def test_fraction_free_reduce_is_a_multiple_of_the_normal_form(text):
    # reduce eliminates with polynomial cofactors, so on a completed system
    # its result is the RatFunc normal form times one nonzero factor
    inv = complete(determining_system(parse_ode(text)))
    for s in all_slots(inv.max_parametric_order() + 2):
        got = slot_keyed(reduce(int_keyed({s: X + 2 * Y}), inv.eqs))
        ref = normal_form(inv, {s: X + 2 * Y})
        assert set(got) == set(ref), s.label()
        if ref:
            t = next(iter(ref))
            ratio = RatFunc(got[t]) / ref[t]
            assert all(RatFunc(got[q]) == ratio * ref[q] for q in ref)


def test_hand_built_constant_system():
    # xi_x = xi_y = eta_x = eta_y = 0 leaves two free constants  [TRIVIAL]
    eqs = [{Slot(XI, 1, 0): ONE}, {Slot(XI, 0, 1): ONE},
           {Slot(ETA, 1, 0): ONE}, {Slot(ETA, 0, 1): ONE}]
    inv = complete(list(map(int_keyed, eqs)))
    assert inv.dimension == 2
    assert {to_slot(s).label() for s in inv.parametric} == {"xi", "eta"}


def test_infinite_dimensional_system_is_refused():
    # no equation constrains eta: the staircase never closes
    with pytest.raises(InternalInvariantError, match="finite"):
        complete(list(map(int_keyed,
                          [{Slot(XI, 1, 0): ONE}, {Slot(XI, 0, 1): ONE}])))


def test_consistent_cross_derivative_keeps_the_slot():
    # xi_x = y*xi, xi_y = x*xi: both mixed derivatives give (1 + x*y)*xi,
    # so the pair is passive and xi survives as one degree of freedom
    # [DERIVED: d/dy(y*xi) = xi + y*x*xi = d/dx(x*xi)]
    eqs = [{Slot(XI, 1, 0): ONE, Slot(XI, 0, 0): -Y},
           {Slot(XI, 0, 1): ONE, Slot(XI, 0, 0): -X},
           {Slot(ETA, 1, 0): ONE}, {Slot(ETA, 0, 1): ONE}]
    eqs = list(map(int_keyed, eqs))
    inv = complete(eqs)
    assert {to_slot(s).label() for s in inv.parametric} == {"xi", "eta"}
    assert audit_involutive(inv, eqs)


def test_inconsistent_cross_derivative_kills_the_slot():
    # xi_x = y*xi but xi_y = 0: the cross derivative forces xi = 0 itself,
    # leaving eta's constant as the only freedom  [DERIVED]
    eqs = [{Slot(XI, 1, 0): ONE, Slot(XI, 0, 0): -Y},
           {Slot(XI, 0, 1): ONE},
           {Slot(ETA, 1, 0): ONE}, {Slot(ETA, 0, 1): ONE}]
    inv = complete(list(map(int_keyed, eqs)))
    assert {to_slot(s).label() for s in inv.parametric} == {"eta"}
    assert inv.dimension == 1
    assert any(to_slot(s).label() == "xi" for s in inv.leads)


def test_bivariate_denominator_completes():
    # completion over RatFunc stalled in a gcd on this input (no answer
    # within 20 s); fraction-free it finishes.  x^2 + y is invariant under
    # d_x - 2x d_y, its only point symmetry  [DERIVED]
    report = analyze("y''' = (y'')^2/(x^2 + y)")
    assert report.m == 1
    assert report.certificate.case == CASE_NONE
    detsys, inv = report.determining, report.involutive
    alt = complete(mirror(detsys))
    assert alt.dimension == inv.dimension
    assert audit_involutive(inv, detsys)
    assert audit_involutive(alt, mirror(detsys))
    one, x = RatFunc(ONE), RatFunc.variable("x")
    for eqs in (detsys, inv.equations):
        assert all(substitute_generator(slot_keyed(eq), one,
                                        RatFunc.const(-2) * x).is_zero()
                   for eq in eqs)
        assert not all(substitute_generator(slot_keyed(eq), one,
                                            RatFunc(ZERO)).is_zero()
                       for eq in eqs)


def test_coprime_bivariate_denominator_completes():
    # a coprime gcd over (x, y) took 13 s in the primitive PRS on this
    # input; evaluation and interpolation settle it.  The answer holds
    # under both rankings, passes the audit, and again at a higher order
    text = "y''' = (y')^2/(x^2 + y^2 + 1)"
    report = analyze(text)
    assert report.m == 0
    assert report.certificate.case == CASE_NONE
    detsys, inv = report.determining, report.involutive
    alt = complete(mirror(detsys))
    assert alt.dimension == inv.dimension == 0
    assert audit_involutive(inv, detsys)
    assert audit_involutive(alt, mirror(detsys))
    higher = analyze(text, max_order=inv.max_parametric_order() + 3)
    assert higher.m == 0


# -- certificates of the completion and the chain criterion -------------------------


def _without_chain_criterion(monkeypatch):
    """Make completion cross every pair of equations in one unknown."""
    monkeypatch.setattr(involutive, "_chain_redundant", lambda *args: False)


def _check_outer_gcds(monkeypatch, check):
    """Patch polys.gcd, which polys.cofactors calls, so that every gcd not
    taken inside another gcd passes check(a, b) first; the calls a gcd makes
    itself, such as the image gcds of interpolation, go unchecked."""
    depth = []

    def gcd(a, b):
        if not depth:
            check(a, b)
        depth.append(None)
        try:
            return poly_gcd(a, b)
        finally:
            depth.pop()

    monkeypatch.setattr(polys, "gcd", gcd)


def _checked_eliminations(monkeypatch):
    """Watch every _eliminate step: its divisor coefficient q[s] must be
    monic, and a gcd may run in it (through polys.cofactors) only when
    neither of q[s] and p[s] divides the other.  Returns the counts of
    steps and of gcds taken in them."""
    real = involutive._eliminate
    counts = {"steps": 0, "gcds": 0}
    may_gcd = []   # one entry while a step runs

    def eliminate(p, q, s):
        a, b = p[s], q[s]
        assert b.leading_numerator() == b.den, b
        counts["steps"] += 1
        may_gcd.append(try_divexact(a, b) is None
                       and try_divexact(b, a) is None)
        try:
            real(p, q, s)
        finally:
            may_gcd.pop()

    def check(a, b):
        if may_gcd:
            assert may_gcd[-1], (a, b)
            counts["gcds"] += 1

    monkeypatch.setattr(involutive, "_eliminate", eliminate)
    _check_outer_gcds(monkeypatch, check)
    return counts


@pytest.mark.parametrize("ode,mirrored", bench_ranking_cases(),
                         indirect=["ode"])
def test_completion_matches_the_pairwise_reference(ode, mirrored,
                                                   monkeypatch):
    """The completed system is pinned with no second completion code.

    The audit shows that every determining equation reduces to zero, so
    the completed equations cut out a subspace of the determining
    system's solutions, and that the completed system is passive, so its
    parametric count is that subspace's dimension.  The pointwise oracle
    (test_liealgebra.test_pointwise_oracle_counts_the_series_basis) reads
    the same count off the determining system itself, with no completion,
    on every plain-ranking case, and a mirrored case must agree with its
    plain one.  Equal dimensions make the subspace the whole solution
    space, which fixes the ideal of the equations.  The audit also shows
    that the system is reduced: no lead divides another term.  With each
    lead its equation's highest slot in int order, the ranking, a reduced
    basis of one ideal is unique up to a factor per equation, which
    ``primitive`` fixes: so the equations, leads and parametric slots are
    pinned.  The pairwise reference is then the engine itself with the
    chain criterion off, crossing every pair, which must give the same
    system.

    The completion runs with every elimination step checked: a monic
    divisor coefficient, and a gcd only where neither coefficient divides
    the other.
    """
    system = ranking_case_system(ode, mirrored)
    counts = _checked_eliminations(monkeypatch)
    inv = complete(system)
    assert counts["steps"] > counts["gcds"]
    assert audit_involutive(inv, system)
    assert all(e.lead == max(e.terms) and e.terms == primitive(e.terms, e.lead)
               for e in inv.eqs)
    if mirrored:
        assert inv.dimension == complete(determining_system(ode)).dimension
    _without_chain_criterion(monkeypatch)
    _assert_same_completion(complete(system), inv)


@pytest.mark.parametrize("ode,mirrored", bench_ranking_cases(),
                         indirect=["ode"])
def test_completion_is_independent_of_input_order(ode, mirrored):
    # the completed system is unique for the ranking, so neither the
    # reversed system nor a shuffled one changes it
    detsys = ranking_case_system(ode, mirrored)
    ref = complete(detsys)
    shuffled = list(detsys)
    random.Random(11).shuffle(shuffled)
    for eqs in (detsys[::-1], shuffled):
        _assert_same_completion(complete(eqs), ref)


@pytest.mark.parametrize("text", ["y'' = (y')^2/(x^2+y^2+1)",
                                  "y''' = y'/((x+y)^2*(x-y))"])
def test_alternate_ranking_settles_the_default_ranking_hangs(text):
    # completion under the default ranking ran past 20 s on both inputs;
    # under the second ranking, int order on the mirrored system, it
    # finishes with m = 0, the value a fallback to it would report
    inv = complete(mirror(determining_system(parse_ode(text))))
    assert inv.dimension == 0


@pytest.mark.parametrize("text", ["y'' = (y')^2/(x^2+y^2+1)",
                                  "y''' = y'/((x+y)^2*(x-y))"])
def test_default_ranking_completes_the_former_hangs(text):
    # completion under the default ranking ran past 20 s on both inputs,
    # in the primitive PRS of gcds over (x, y) with nontrivial answers;
    # evaluation and interpolation settle them.  The answer holds under
    # both rankings, passes the audit, and again three orders higher
    start = time.perf_counter()
    report = analyze(text)
    assert time.perf_counter() - start < 20
    assert report.m == 0
    assert report.certificate.verdict == "not-linearizable"
    detsys, inv = report.determining, report.involutive
    alt = complete(mirror(detsys))
    assert alt.dimension == inv.dimension == 0
    assert audit_involutive(inv, detsys)
    assert audit_involutive(alt, mirror(detsys))
    higher = analyze(text, max_order=inv.max_parametric_order() + 3)
    assert higher.m == 0


def _counting_cross(monkeypatch):
    """Patch involutive._cross to record the lead pair of each call."""
    seen = []
    original = involutive._cross

    def counted(a, b):
        seen.append((a.lead, b.lead))
        return original(a, b)

    monkeypatch.setattr(involutive, "_cross", counted)
    return seen


def test_chain_criterion_skips_the_redundant_pair(monkeypatch):
    # (xi_xx, xi_yy) meet at xi_xxyy; the lead xi_xy divides it and meets
    # each of them strictly below (xi_xxy, xi_xyy), and those two pairs are
    # taken first, so the cross-derivative at xi_xxyy is never formed.  The
    # pairs are compared unordered: which equation of a pair comes first
    # depends on the order in which completion inserts them
    xx, xy, yy = Slot(XI, 2, 0), Slot(XI, 1, 1), Slot(XI, 0, 2)
    eqs = [{xx: ONE, Slot(ETA, 0, 0): -X}, {xy: ONE}, {yy: ONE},
           {Slot(ETA, 1, 0): ONE}, {Slot(ETA, 0, 1): ONE}]
    eqs = list(map(int_keyed, eqs))
    crossed = _counting_cross(monkeypatch)
    inv = complete(eqs)
    seen = {frozenset(map(to_slot, pair)) for pair in crossed}
    assert {frozenset((xx, xy)), frozenset((xy, yy))} <= seen
    assert frozenset((xx, yy)) not in seen
    assert audit_involutive(inv, eqs)
    _without_chain_criterion(monkeypatch)
    _assert_same_completion(complete(eqs), inv)


def test_chain_criterion_forms_fewer_cross_derivatives(monkeypatch):
    # on the rational bench inputs the criterion skips some pairs that
    # completion without it crosses
    seen = _counting_cross(monkeypatch)
    systems = [determining_system(ode) for name, ode, _ in bench_odes()
               if name.startswith("rational-")]
    for detsys in systems:
        complete(detsys)
    with_criterion = len(seen)
    _without_chain_criterion(monkeypatch)
    for detsys in systems:
        complete(detsys)
    assert 0 < with_criterion < len(seen) - with_criterion


# -- the kernel's ownership and gcd rules -------------------------------------------


@pytest.mark.parametrize("ode,mirrored", bench_ranking_cases(),
                         indirect=["ode"])
def test_reduce_leaves_its_argument_unchanged(ode, mirrored):
    # reduce eliminates in a copy of its argument: the determining
    # equations and the prolongations of the completed ones, all reduced
    # by the completed system, keep their values and their slot order
    detsys = ranking_case_system(ode, mirrored)
    inv = complete(detsys)
    for p in detsys + [lin_derive(e.terms, var)
                       for e in inv.eqs for var in "xy"]:
        snapshot = dict(p)
        reduce(p, inv.eqs)
        assert p == snapshot and list(p) == list(snapshot)


@pytest.mark.parametrize("ode,mirrored", bench_ranking_cases(),
                         indirect=["ode"])
def test_cross_writes_into_no_equation(ode, mirrored):
    # _cross eliminates in a copy of the cached prolongation: it gives the
    # same result twice, and leaves the terms of both equations as they
    # were and every cached derivative as lin_derive gives it.  The pairs
    # are those of the completed system and of the determining equations,
    # each made primitive for its lead
    detsys = ranking_case_system(ode, mirrored)
    eqs = complete(detsys).eqs
    for i, eq in enumerate(detsys):
        lead = max(eq)
        eqs.append(_Eq(primitive(eq, lead), lead, -1 - i))
    pairs = [(a, b) for a, b in itertools.combinations(eqs, 2)
             if fields(a.lead)[0] == fields(b.lead)[0]]
    assert pairs
    for a, b in pairs:
        terms = [dict(a.terms), dict(b.terms)]
        first = _cross(a, b)
        assert _cross(a, b) == first
        assert [a.terms, b.terms] == terms
        for e in (a, b):
            fresh = _Eq(dict(e.terms), e.lead, -1)
            assert all(v == fresh.derived(d) for d, v in e._dcache.items())


@pytest.mark.parametrize("ode,mirrored", bench_ranking_cases(),
                         indirect=["ode"])
def test_completion_takes_no_gcd_of_a_constant(ode, mirrored, monkeypatch):
    # the gcd of a constant and a polynomial is 1, so _eliminate and
    # primitive (through polys.content) never take it; with a gcd that
    # refuses a constant operand, completion still runs and gives the system
    # of the unpatched run, which test_completion_matches_the_pairwise_reference
    # certifies
    def strict(a, b):
        assert not (a.is_const() or b.is_const()), (a, b)

    detsys = ranking_case_system(ode, mirrored)
    expected = complete(detsys)
    _check_outer_gcds(monkeypatch, strict)
    _assert_same_completion(complete(detsys), expected)


def test_elimination_takes_cofactors_of_nonconstant_coefficients_only(
        monkeypatch):
    # a constant p[s] or q[s] has cofactors (1, p[s], q[s]), so _eliminate
    # calls polys.cofactors only when both are nonconstant; the completions
    # are those of the unpatched runs
    cofactors, seen = involutive.cofactors, []

    def strict(a, b):
        assert not (a.is_const() or b.is_const()), (a, b)
        seen.append((a, b))
        return cofactors(a, b)

    detsys = [determining_system(parse_ode(text))
              for text in CANONICAL_INPUTS.values()]
    expected = [complete(d) for d in detsys]
    monkeypatch.setattr(involutive, "cofactors", strict)
    for d, inv in zip(detsys, expected):
        _assert_same_completion(complete(d), inv)
    assert seen


def test_a_divisor_coefficient_that_is_a_multiple_takes_no_gcd(monkeypatch):
    # b = q[s] is a multiple of a = p[s], so monic(a) is their gcd:
    # _eliminate takes the cofactors b/monic(a) and lc(a) = 2 from one
    # exact division
    def refuse(a, b):
        raise AssertionError("gcd(%r, %r) was taken" % (a, b))

    monkeypatch.setattr(polys, "gcd", refuse)
    s, t = to_int(Slot(XI, 0, 0)), to_int(Slot(ETA, 0, 0))
    a, quot = 2 * X + 2, X + Y
    p, q = {s: a, t: Y}, {s: a * quot.scaled(1, 2), t: ONE}
    involutive._eliminate(p, q, s)
    assert p == {t: quot * Y - 2 * ONE}
