"""Determining systems: prolongation formulas, jet collection, known kernels."""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieode.determining import (DX, DY, _prolongation_terms,
                                determining_system, divides,
                                invariance_coefficients, label, rank, slot)
from lieode.involutive import _lcm, complete, primitive
from lieode.jets import jet_name, jet_order_of
from lieode.parsing import OdeSpec, parse_ode
from lieode import polys
from lieode.polys import MPoly, content, gcd
from lieode.ratfunc import RatFunc

from conftest import (ETA, XI, Slot, audit_involutive, bench_inputs,
                      bench_plain, canonical_view, default_key, leading_coeff,
                      mirror, mirror_key, mirror_slot, mpolys,
                      nonzero_rationals, plain_eval, rationals,
                      reference_collected, reference_determining_system,
                      reference_primitive, reference_prolonged_eta,
                      reference_slot_index, slot_keyed,
                      substitute, substitute_generator, to_int, to_slot)


def jet(k):
    return MPoly.variable(jet_name(k))


X = RatFunc.variable("x")
Y = RatFunc.variable("y")
ONE = RatFunc(polys.ONE)
ZERO = RatFunc(polys.ZERO)


def _up_to_scale(eq, expected):
    """Equation dicts match after dividing out one common nonzero factor."""
    if set(eq) != set(expected):
        return False
    slot = next(iter(expected))
    ratio = RatFunc(eq[slot], expected[slot])
    return all(RatFunc(eq[s]) == ratio * RatFunc(expected[s])
               for s in expected)


# -- prolongation -----------------------------------------------------------------


def split_keyed(lin):
    """One linear part of ``_prolongation_terms`` as {Slot: {jet key: int}}."""
    return {to_slot(s): dict(split) for s, split in lin}


Y1, Y1_2, Y1_3 = (("y1", 1),), (("y1", 2),), (("y1", 3),)


def test_first_prolongation_formula():
    # eta^(1) = eta_x + (eta_y - xi_x) y' - xi_y (y')^2  [PAPER]
    # (at order 2, whose linear parts are A, B, xi, eta, eta^(1))
    got = split_keyed(_prolongation_terms(2)[4])
    expected = {
        Slot(ETA, 1, 0): {(): 1},
        Slot(ETA, 0, 1): {Y1: 1},
        Slot(XI, 1, 0): {Y1: -1},
        Slot(XI, 0, 1): {Y1_2: -1},
    }
    assert got == expected


def test_second_prolongation_formula():
    # eta^(2) = eta_xx + (2 eta_xy - xi_xx) y' + (eta_yy - 2 xi_xy) (y')^2
    #           - xi_yy (y')^3 + (eta_y - 2 xi_x) y'' - 3 xi_y y' y''  [PAPER]
    # split as A + B y''
    a_part, b_part = _prolongation_terms(2)[:2]
    assert split_keyed(a_part) == {
        Slot(ETA, 2, 0): {(): 1},
        Slot(ETA, 1, 1): {Y1: 2},
        Slot(XI, 2, 0): {Y1: -1},
        Slot(ETA, 0, 2): {Y1_2: 1},
        Slot(XI, 1, 1): {Y1_2: -2},
        Slot(XI, 0, 2): {Y1_3: -1},
    }
    assert split_keyed(b_part) == {
        Slot(ETA, 0, 1): {(): 1},
        Slot(XI, 1, 0): {(): -2},
        Slot(XI, 0, 1): {Y1: -3},
    }


@pytest.mark.parametrize("n", range(2, 7))
def test_prolongation_terms_match_the_polynomial_recursion(n):
    # the integer jet terms are the MPoly recursion with D_x as a polynomial
    # derivation, eta^(n) split by its power of y^(n), every part split by
    # jet monomial in (y', ..., y^(n-1))
    etas = reference_prolonged_eta(n)
    top = jet_name(n)
    parts = ({}, {})
    for s, c in etas[n].items():
        assert c.degree_in(top) <= 1
        for i, p in enumerate(c.coeffs_in(top)):
            if not p.is_zero():
                parts[i][s] = p
    jets = {jet_name(k) for k in range(1, n)}
    lins = [*parts, {Slot(XI, 0, 0): MPoly.const(1)}, *etas[:n]]
    expected = [{s: c.coeffs_over(jets) for s, c in lin.items()}
                for lin in lins]
    assert [split_keyed(lin) for lin in _prolongation_terms(n)] == expected


def test_prolongation_recursion_order_bound():
    # eta^(k), k < n, involves no jet above y^(k), and no part a slot of
    # order above n
    for n in (2, 3, 4):
        lins = _prolongation_terms(n)
        for k, lin in enumerate(lins[3:]):
            assert all(jet_order_of(name) <= k
                       for _, split in lin for key, _ in split
                       for name, _ in key)
        assert max(to_slot(s).order for lin in lins for s, _ in lin) == n


def test_prolongation_terms_are_cached_and_immutable():
    # built once per order, as nested tuples no caller can change
    terms = _prolongation_terms(3)
    assert _prolongation_terms(3) is terms

    def frozen(t):
        return (isinstance(t, (int, str))
                or isinstance(t, tuple) and all(map(frozen, t)))

    assert frozen(terms)


# -- packed slots ------------------------------------------------------------------


@st.composite
def reference_slots(draw):
    # small orders meet and tie often; large ones fill most of each field
    order = draw(st.one_of(st.integers(0, 4), st.integers(0, 2 ** 14)))
    dx = draw(st.integers(0, order))
    return Slot(draw(st.sampled_from([XI, ETA])), dx, order - dx)


@st.composite
def slot_pairs(draw):
    """Two reference slots; half the time the second is a near neighbour
    of the first, on either unknown, so that one often divides the other."""
    s = draw(reference_slots())
    near = st.builds(lambda u, i, j: Slot(u, max(s.dx + i, 0),
                                          max(s.dy + j, 0)),
                     st.sampled_from([XI, ETA]), st.integers(-2, 2),
                     st.integers(-2, 2))
    return s, draw(st.one_of(reference_slots(), near))


@given(slot_pairs())
def test_packed_order_is_the_default_ranking(pair):
    s, t = pair
    assert (to_int(s) < to_int(t)) == (default_key(s) < default_key(t))
    assert (to_int(s) == to_int(t)) == (s == t)


@given(slot_pairs())
def test_int_order_of_mirrored_slots_is_the_mirror_key(pair):
    # the second ranking is int order on the mirrored system
    s, t = pair
    a, b = mirror_slot(to_int(s)), mirror_slot(to_int(t))
    assert (a < b) == (mirror_key(s) < mirror_key(t))
    assert to_slot(a) == Slot(ETA if s.unknown == XI else XI, s.dy, s.dx)


@given(st.lists(st.dictionaries(reference_slots().map(to_int), mpolys(),
                                max_size=4), max_size=3))
def test_mirror_is_an_involution_on_systems(system):
    # mirrored twice, every slot and coefficient is back; mirrored once,
    # each coefficient takes at (x, y) = (5, 2) its value at (2, 5)
    once = mirror(system)
    assert mirror(once) == system
    for eq, image in zip(system, once):
        assert len(image) == len(eq)
        for s, c in eq.items():
            assert (plain_eval(image[mirror_slot(s)], {"x": 5, "y": 2})
                    == plain_eval(c, {"x": 2, "y": 5}))


@given(slot_pairs())
def test_packed_slot_operations_match_the_reference(pair):
    # divisibility, derivatives, least common derivatives and labels on
    # the ints are those of the Slot reference, and to_slot inverts to_int
    s, t = pair
    a, b = to_int(s), to_int(t)
    assert divides(a, b) == s.divides(t)
    assert (a + DX, a + DY) == (to_int(s.derive(1, 0)),
                                to_int(s.derive(0, 1)))
    if s.unknown == t.unknown:
        assert _lcm(a, b) == to_int(Slot(s.unknown, max(s.dx, t.dx),
                                         max(s.dy, t.dy)))
    assert label(a) == s.label()
    assert to_slot(a) == s


@pytest.mark.parametrize("N", range(26))
def test_rank_numbers_the_slots_of_order_at_most_n(N):
    # rank maps the slots of order <= N one-to-one onto
    # range((N + 1)(N + 2)), ascending in int order, and is each slot's
    # place under the reference ranking
    index = reference_slot_index(N)
    slots = sorted(map(to_int, index))
    assert [rank(s) for s in slots] == list(range((N + 1) * (N + 2)))
    assert all(rank(to_int(s)) == k for s, k in index.items())


def test_slot_order_bound():
    # orders up to 2^15 - 1 fit in a field below its guard bit
    assert to_slot(slot(1, 2 ** 15 - 1, 0)) == Slot(ETA, 2 ** 15 - 1, 0)
    for dx, dy in ((2 ** 15, 0), (2 ** 14, 2 ** 14), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            slot(0, dx, dy)


# -- the invariance condition and its multiplier ------------------------------------


@st.composite
def quotient_odes(draw):
    """y^(n) + P/Q = 0 with small P, Q; Q sometimes holds a squared factor
    in y', and sometimes one in (x, y)."""
    n = draw(st.sampled_from([2, 3]))
    coords = [MPoly.variable("x")] + [jet(k) for k in range(n)]

    def poly(max_terms):
        total = MPoly.const(0)
        for _ in range(draw(st.integers(1, max_terms))):
            term = MPoly.const(draw(rationals(max_abs=3, max_den=2)))
            for _ in range(draw(st.integers(0, 2))):
                term = term * draw(st.sampled_from(coords))
            total = total + term
        return total

    P, Q = poly(3), poly(2)
    if draw(st.booleans()):
        Q = Q * (MPoly.const(1) + draw(nonzero_rationals(3, 2)) * jet(1)) ** 2
    if draw(st.booleans()):
        c, d = draw(rationals(3, 2)), draw(nonzero_rationals(3, 2))
        Q = Q * (MPoly.const(1) + c * MPoly.variable("x") + d * jet(0)) ** 2
    assume(not Q.is_zero())
    return OdeSpec(n, RatFunc(P, Q))


def _textbook_condition(ode):
    """eta^(n) on y^(n) = -f, plus xi f_x + sum_k eta^(k) f_{y^(k)}, over RatFunc."""
    n, f = ode.n, ode.f
    etas = reference_prolonged_eta(n)
    out = {s: substitute(RatFunc(c), jet_name(n), -f) for s, c in etas[n].items()}
    terms = [({Slot(XI, 0, 0): MPoly.const(1)}, "x")] + [
        (etas[k], jet_name(k)) for k in range(n)]
    for lin, v in terms:
        fv = f.derive({v: ONE})
        for s, c in lin.items():
            out[s] = out.get(s, ZERO) + RatFunc(c) * fv
    return {s: c for s, c in out.items() if not c.is_zero()}


@settings(max_examples=25)
@given(quotient_odes())
def test_invariance_expression_is_textbook_condition_times_QR(ode):
    # the polynomial condition, summed back over its jet monomials and
    # divided by Q*R, with R the squarefree part of Q, is the textbook
    # invariance condition on solutions  [DERIVED]
    Q = ode.f.den
    G = Q
    for v in Q.vars:
        G = gcd(G, Q.derivative(v))
    QR = RatFunc(Q * Q, G)
    got = {}
    for key, eq in invariance_coefficients(ode).items():
        mono = MPoly.const(1)
        for name, k in key:
            mono = mono * MPoly.variable(name) ** k
        for s, c in slot_keyed(eq).items():
            got[s] = got.get(s, ZERO) + RatFunc(c * mono)
    assert {s: c / QR for s, c in got.items()} == _textbook_condition(ode)


def _assert_matches_the_product_form(ode):
    # the equations as collected are the full products collected by jet
    # monomial, before any scaling, in the same order; made primitive with
    # a gcd-chain content and deduplicated, they are the reference's
    system = determining_system(ode)
    assert [slot_keyed(eq) for eq in system] == reference_collected(ode)
    assert ([slot_keyed(eq) for eq in canonical_view(system)]
            == reference_determining_system(ode))


@pytest.mark.parametrize("ode", bench_plain(), indirect=True)
def test_determining_system_matches_the_product_form_reference(ode):
    _assert_matches_the_product_form(ode)


@pytest.mark.parametrize("ode", bench_inputs(), indirect=True)
def test_determining_equations_are_primitive_for_their_lead(ode):
    # in the canonical view each equation is scaled for its highest slot in
    # int order, the lead completion solves it for
    for eq in canonical_view(determining_system(ode)):
        assert primitive(eq, max(eq)) == eq


@settings(max_examples=25)
@given(quotient_odes())
def test_determining_system_matches_the_reference_on_quotients(ode):
    # Q may hold a squared factor in y' or in (x, y), so R*Q and f_v carry
    # jets, and Q_v/G is a polynomial other than Q_v for v = x, y
    _assert_matches_the_product_form(ode)


def _assert_completes_as_the_canonical_view(ode):
    # completion makes each equation it inserts primitive and reduces a
    # duplicate to zero, so the system as collected and its canonical view
    # complete alike, and the completion reduces every collected equation
    system = determining_system(ode)
    inv = complete(system)
    ref = complete(canonical_view(system))
    assert inv.equations == ref.equations
    assert inv.leads == ref.leads
    assert inv.parametric == ref.parametric
    assert audit_involutive(inv, system)


@pytest.mark.parametrize("ode", bench_inputs(), indirect=True)
def test_collected_system_completes_as_its_canonical_view(ode):
    _assert_completes_as_the_canonical_view(ode)


@settings(max_examples=25)
@given(quotient_odes())
def test_collected_system_completes_as_its_canonical_view_on_quotients(ode):
    _assert_completes_as_the_canonical_view(ode)


# -- the primitive form of an equation ---------------------------------------------


@st.composite
def xy_polys(draw):
    """Nonzero polynomials in (x, y) of degree <= 2 in each variable."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[e] = draw(nonzero_rationals(3, 2))
    return MPoly(("x", "y"), terms)


@st.composite
def scaled_equations(draw):
    """(eq, top, h1, h2): an equation, one of its slots, two multipliers."""
    slots = draw(st.lists(st.sampled_from(
        [to_int(Slot(u, i, j)) for u in (XI, ETA) for i in range(3)
         for j in range(3 - i)]), min_size=1, max_size=4, unique=True))
    eq = {s: draw(xy_polys()) for s in slots}
    return eq, draw(st.sampled_from(slots)), draw(xy_polys()), draw(xy_polys())


@given(scaled_equations())
def test_primitive_form_is_canonical(case):
    # every multiple of an equation by a nonzero polynomial or rational
    # function h = h1/h2 has one primitive form: content 1, top coefficient
    # of leading coefficient 1, and over RatFunc the same equation solved for
    # top as the raw one; the canonical view deduplicates on it  [DERIVED]
    eq, top, h1, h2 = case
    p = primitive({s: c * h1 for s, c in eq.items()}, top)
    assert p == primitive({s: c * h2 for s, c in eq.items()}, top)
    assert p == primitive(eq, top)
    assert content(list(p.values()))[0] == 1
    assert leading_coeff(p[top]) == 1
    assert ({s: RatFunc(c, p[top]) for s, c in p.items()}
            == {s: RatFunc(c, eq[top]) for s, c in eq.items()})


@st.composite
def signed_equations(draw):
    """(eq, top): coefficients that are constants only, or polynomials in
    (x, y) with a common factor, each with a drawn sign, so that the lead
    of eq[top] is negative about half the time."""
    slots = draw(st.lists(st.sampled_from(
        [to_int(Slot(u, i, j)) for u in (XI, ETA) for i in range(3)
         for j in range(3 - i)]), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        coeff, factor = nonzero_rationals().map(MPoly.const), MPoly.const(1)
    else:
        coeff, factor = xy_polys(), draw(xy_polys())
    eq = {s: draw(coeff) * factor * draw(st.sampled_from([1, -1]))
          for s in slots}
    return eq, draw(st.sampled_from(slots))


@given(signed_equations())
def test_primitive_matches_the_reference(case):
    # the integer scaling gives the gcd-chain-then-divide form exactly
    eq, top = case
    assert primitive(eq, top) == reference_primitive(eq, top)


# -- the classical free-particle system --------------------------------------------


def test_free_particle_determining_equations():
    # Collecting y'^3, y'^2, y'^1, y'^0 for y'' = 0 gives the textbook set
    #   xi_yy = 0,  eta_yy - 2 xi_xy = 0,  2 eta_xy - xi_xx = 0,  eta_xx = 0
    # [PAPER]
    system = determining_system(parse_ode("y'' = 0"))
    assert len(system) == 4
    one = MPoly.const(1)
    expected = [
        {Slot(XI, 0, 2): one},
        {Slot(ETA, 0, 2): one, Slot(XI, 1, 1): MPoly.const(-2)},
        {Slot(ETA, 1, 1): MPoly.const(2), Slot(XI, 2, 0): -one},
        {Slot(ETA, 2, 0): one},
    ]
    matched = [any(_up_to_scale(slot_keyed(eq), want) for eq in system)
               for want in expected]
    assert all(matched)


# -- membership oracle: known symmetries annihilate the system ---------------------

FREE_PARTICLE_GENERATORS = [
    # the eight point symmetries of y'' = 0  [PAPER]
    (ONE, ZERO),
    (X, ZERO),
    (Y, ZERO),
    (ZERO, ONE),
    (ZERO, X),
    (ZERO, Y),
    (X * X, X * Y),
    (X * Y, Y * Y),
]


def test_free_particle_generators_satisfy_system():
    system = determining_system(parse_ode("y'' = 0"))
    for xi, eta in FREE_PARTICLE_GENERATORS:
        for eq in system:
            assert substitute_generator(slot_keyed(eq), xi, eta).is_zero()


def test_non_symmetry_is_rejected_by_some_equation():
    system = determining_system(parse_ode("y'' = 0"))
    xi, eta = X * X, ZERO   # x^2 d/dx alone is not a symmetry
    assert any(not substitute_generator(slot_keyed(eq), xi, eta).is_zero()
               for eq in system)


def test_painleve_control_generators():
    # y'' = y^2 admits d/dx and x d/dx - 2y d/dy and nothing else;
    # both must satisfy the system, a scaling with the wrong weight must not.
    # [DERIVED: direct substitution]
    system = determining_system(parse_ode("y'' = y^2"))
    for xi, eta in [(ONE, ZERO), (X, RatFunc.const(-2) * Y)]:
        for eq in system:
            assert substitute_generator(slot_keyed(eq), xi, eta).is_zero()
    assert any(not substitute_generator(slot_keyed(eq), X, -Y).is_zero()
               for eq in system)


def test_rational_coefficient_equation():
    # y'' + y'/x = 0: generators include x d/dx and y d/dy  [DERIVED]
    system = determining_system(parse_ode("y'' + y'/x = 0"))
    for xi, eta in [(X, ZERO), (ZERO, Y)]:
        for eq in system:
            assert substitute_generator(slot_keyed(eq), xi, eta).is_zero()


def test_third_order_system_size_stays_small():
    # one equation per jet monomial; the cubic equation stays within the
    # monomials of (y', y'') up to the prolongation's degree
    system = determining_system(parse_ode("y''' + y*y' = 0"))
    assert 4 <= len(system) <= 12
    orders = {s.order for eq in system for s in slot_keyed(eq)}
    assert max(orders) == 3
