"""Multivariate polynomial arithmetic: ring laws, calculus, gcd."""
import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lieode import polys
from lieode.errors import InputError
from lieode.parsing import parse_ode
from lieode.polys import (ONE, ZERO, MPoly, _guard, _monic, _pack,
                          _strip_monomial, _unpack, cofactors, content,
                          divexact, gcd, try_divexact, var_rank)
from lieode.ratfunc import RatFunc

from conftest import (MODULUS, as_const, from_coeffs, leading,
                      leading_coeff, mono_key, mpolys, nonzero_rationals,
                      rationals, reference_derivative)

X = MPoly.variable("x")
Y = MPoly.variable("y")


# -- ring laws --------------------------------------------------------------------


@given(mpolys(), mpolys(), mpolys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * MPoly.const(1) == a
    assert a - a == ZERO


@given(mpolys(), st.integers(0, 4))
def test_pow_is_repeated_product(a, k):
    expected = MPoly.const(1)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def test_mixed_variable_alignment():
    # polynomials over different variable tuples combine correctly
    p = MPoly(("x",), {(1,): Fraction(1)})
    q = MPoly(("y",), {(1,): Fraction(1)})
    assert p + q == X + Y
    assert p * q == X * Y


# -- calculus ---------------------------------------------------------------------


@given(mpolys(), mpolys())
def test_derivative_product_rule(a, b):
    lhs = (a * b).derivative("x")
    rhs = a.derivative("x") * b + a * b.derivative("x")
    assert lhs == rhs


@given(mpolys())
def test_derivative_kills_missing_variable(a):
    assert a.derivative("z").is_zero()


def test_derivative_oracle():
    # d/dx (x^2 y + 3 x) = 2 x y + 3  [TRIVIAL]
    p = X * X * Y + 3 * X
    assert p.derivative("x") == 2 * X * Y + MPoly.const(3)


def _sum_of_partials(p, images):
    """sum over v of dp/dv * images[v], one product per variable."""
    out = ZERO
    for v in p.vars:
        if images.get(v):
            out = out + p.derivative(v) * images[v]
    return out


T1 = MPoly.variable("t1")


@pytest.mark.parametrize("p, images", [
    # an image that brings a new variable
    (X * X * Y + 3 * X, {"x": T1}),
    (X * Y * T1, {"x": T1 * T1, "t1": X * T1 + Y}),
    # images with rational coefficients and different denominators
    (X ** 3 * Y - Fraction(5, 2) * Y * Y,
     {"x": Fraction(2, 3) * Y + Fraction(1, 5), "y": Fraction(1, 7) * X}),
    (Fraction(3, 4) * X * Y + X, {"x": Fraction(4, 3) * X * T1,
                                  "y": Fraction(1, 6) * (Y + T1)}),
    # a zero image and an absent image
    (X * X * Y + Y, {"x": ZERO, "y": X + 1}),
    (X * X * Y + Y, {"y": X * T1}),
    (X * Y + 1, {"t1": X}),
], ids=["new-variable", "new-variable-twice", "rational", "rational-scaled",
        "zero-image", "absent-image", "no-variable-of-p"])
def test_derive_in_one_pass_is_the_sum_of_partials(p, images):
    # == compares (vars, den, num), so the result is also canonical
    assert p.derive(images) == _sum_of_partials(p, images)


def test_derive_drops_what_cancels():
    # x y under x -> x, y -> -y: y x - x y = 0, and every variable goes
    # (== compares vars too)
    assert (X * Y).derive({"x": X, "y": -Y}) == ZERO
    # x y + t1 under x -> x, y -> -y, t1 -> t1: only t1 is left
    assert (X * Y + T1).derive({"x": X, "y": -Y, "t1": T1}) == T1


def test_derive_of_a_constant_is_zero():
    for c in (ZERO, ONE, MPoly.const(Fraction(-7, 3))):
        assert c.derive({"x": X, "y": ONE}) == ZERO
        assert c.derive({}) == ZERO


@given(mpolys(), mpolys(("x", "t1")), mpolys(("y",)), mpolys(("t1", "y1")))
def test_derive_matches_the_sum_of_partials(p, wx, wy, wt):
    images = {"x": wx, "y": wy, "t1": wt}
    assert p.derive(images) == _sum_of_partials(p, images)


def test_derive_keeps_the_total_degree_bound():
    # d/dx x^(2^30) = 2^30 x^(2^30 - 1), times x^(2^30 + 1): degree 2^31
    p = X ** (2 ** 30)
    with pytest.raises(InputError, match=r"total degree 2147483648: .*"
                                         r"below 2\^31"):
        p.derive({"x": X ** (2 ** 30 + 1)})
    assert p.derive({"x": X ** 2 ** 30}) == 2 ** 30 * X ** (2 ** 31 - 1)


# -- one fixed layout for a chain ----------------------------------------------------
# FixedLayout's products, scaled sums and derivation against MPoly arithmetic;
# == compares (vars, den, num), so every build is also canonical.


@pytest.mark.parametrize("a, b", [
    (X + 1, Y * Y - 3),
    (Fraction(1, 2) * X * Y, Fraction(2, 3) * T1 + Y),
    (MPoly.const(Fraction(5, 7)), X * T1),
    (X * Y + 1, ZERO),
], ids=["x-by-y", "rational-with-t1", "constant", "zero"])
def test_layout_products_match_mpoly(a, b):
    ring = polys.FixedLayout({}, a, b)
    la, lb = ring.lifted
    assert ring.build(ring.mul(la, lb)) == a * b
    assert ring.build(ring.mul(lb, la)) == a * b


def test_layout_scaled_sums_match_mpoly():
    a, b = X * Y + Fraction(1, 3) * T1, Fraction(2, 9) * T1 + 5
    ring = polys.FixedLayout({}, a, b)
    la, lb = ring.lifted
    # a - (3/2) b cancels t1, which the build prunes
    got = ring.build(ring.add_scaled(la, lb, -3, 2))
    assert got == a.add_scaled(b, -3, 2) == X * Y - Fraction(15, 2)
    assert got.vars == ("x", "y")
    assert ring.build(ring.add_scaled(la, la, -1)) == ZERO
    assert ring.build(ring.add_scaled(ring.zero, lb, 7, 3)) == b * Fraction(7, 3)
    assert ring.build(ring.add_scaled(la, lb, 0)) == a


def test_layout_derivation_matches_mpoly():
    # images over different denominators, one bringing in t1; y1 has none
    Y1 = MPoly.variable("y1")
    p = X ** 3 * Y - Fraction(5, 2) * Y * Y1 + X
    images = {"x": Fraction(2, 3) * T1 + Fraction(1, 5),
              "y": Fraction(1, 7) * X, "t1": Fraction(3, 4) * T1 * Y}
    ring = polys.FixedLayout(images, p)
    assert ring.vars == ("x", "y", "y1", "t1")
    (lp,) = ring.lifted
    once = ring.derive(lp)
    assert ring.build(once) == p.derive(images) == _sum_of_partials(p, images)
    assert (ring.build(ring.derive(once))
            == p.derive(images).derive(images))


def test_layout_build_prunes_what_cancelled():
    # x y under x -> x, y -> -y is 0; x y + t1 keeps only t1
    ring = polys.FixedLayout({"x": X, "y": -Y, "t1": T1}, X * Y, X * Y + T1)
    la, lb = ring.lifted
    assert ring.build(ring.derive(la)) == ZERO
    assert ring.build(ring.derive(lb)) == T1
    assert ring.build(ring.derive(lb)).vars == ("t1",)


@given(mpolys(), mpolys(("x", "t1")), mpolys(("y", "t1")), mpolys(("y1",)),
       nonzero_rationals())
def test_layout_chain_matches_mpoly(a, b, wx, wt, r):
    # a chain of each step: b a' + r a, then its product with a
    images = {"x": wx, "y": wt, "t1": wx * wt}
    ring = polys.FixedLayout(images, a, b)
    la, lb = ring.lifted
    step = ring.add_scaled(ring.mul(lb, ring.derive(la)), la, r.numerator,
                           r.denominator)
    want = b * a.derive(images) + r * a
    assert ring.build(step) == want
    assert ring.build(ring.mul(step, la)) == want * a


def test_layout_product_keeps_the_total_degree_bound():
    # x^(2^30) times x^(2^30) y has degree 2^31 + 1
    a, b = X ** (2 ** 30), X ** (2 ** 30) * Y
    ring = polys.FixedLayout({}, a, b)
    with pytest.raises(InputError) as got:
        ring.mul(*ring.lifted)
    with pytest.raises(InputError) as want:
        a * b
    assert str(got.value) == str(want.value)
    assert "total degree 2147483649" in str(got.value)


def test_scalar_queries_return_fractions():
    # no int or float escapes: every exact scalar a polynomial hands out
    # is a Fraction
    for c in (MPoly.const(3), MPoly.const(Fraction(-1, 2)), ZERO):
        assert type(as_const(c)) is Fraction
    for p in (2 * X + Y, X * Y - MPoly.const(Fraction(1, 3)), Fraction(5, 7) * Y):
        assert type(leading_coeff(p)) is Fraction


# -- coefficient extraction -------------------------------------------------------


@given(mpolys())
def test_coeffs_roundtrip(p):
    coeffs = p.coeffs_in("y")
    assert from_coeffs(coeffs, "y") == p


def test_coeffs_in_oracle():
    # x y^2 + 2 y^2 + 5 → coefficients [5, 0, x + 2] in y  [DERIVED]
    p = X * Y * Y + 2 * Y * Y + MPoly.const(5)
    c = p.coeffs_in("y")
    assert c == [MPoly.const(5), ZERO, X + MPoly.const(2)]


def test_coeffs_over_oracle():
    # x y1^2 y10 + 3 y10 y2 + x over {y1, y10, y2}: keys list the monomial's
    # (name, exponent) pairs sorted by name, so y10 sorts before y2
    # [DERIVED]
    y1, y2, y10 = (MPoly.variable(v) for v in ("y1", "y2", "y10"))
    p = X * y1 ** 2 * y10 + 3 * y10 * y2 + X
    assert p.coeffs_over({"y1", "y2", "y10"}) == {
        (("y1", 2), ("y10", 1)): X,
        (("y10", 1), ("y2", 1)): MPoly.const(3),
        (): X,
    }
    assert X.coeffs_over({"y1"}) == {(): X}


# -- division and gcd -------------------------------------------------------------


@given(mpolys(), mpolys())
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    assert divexact(a * b, b) == a


def test_try_divexact_rejects_nondivisor():
    assert try_divexact(X * X + Y, X + Y) is None


def test_exact_division_oracles():
    one = MPoly.const(1)
    half = Fraction(1, 2)
    # (2x + 2) / (4x + 4) = 1/2  [TRIVIAL]
    assert divexact(2 * X + 2, 4 * X + 4) == MPoly.const(half)
    # (x^2 - 1/4) / (x + 1/2) = x - 1/2  [TRIVIAL]
    assert try_divexact(X * X - MPoly.const(Fraction(1, 4)),
                        X + MPoly.const(half)) == X - MPoly.const(half)
    # x^2 + 1 has no real root, 2x + 1 has root -1/2  [TRIVIAL]
    assert try_divexact(X * X + one, 2 * X + one) is None
    # divisor -6xy + 4x - 2: negative leading coefficient, content 2  [DERIVED]
    b = -6 * X * Y + 4 * X - 2
    q = Fraction(1, 3) * X - Y + MPoly.const(Fraction(5, 2))
    assert try_divexact(b * q, b) == q
    assert try_divexact(b * q, -b) == -q
    assert try_divexact(b * q + one, b) is None
    assert try_divexact(Fraction(3, 7) * b * q, Fraction(2, 5) * b) == \
        Fraction(15, 14) * q


def _associate(p, q):
    """Equal up to a nonzero constant factor."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    r = try_divexact(p, q)
    return r is not None and r.is_const()


def test_gcd_oracle():
    # gcd((x+y)^2 (x-1), (x+y)(x-1)^2) = (x+y)(x-1)  [DERIVED]
    u = (X + Y) ** 2 * (X - MPoly.const(1))
    v = (X + Y) * (X - MPoly.const(1)) ** 2
    g = gcd(u, v)
    assert _associate(g, (X + Y) * (X - MPoly.const(1)))


@given(mpolys(max_terms=3, max_exp=2), mpolys(max_terms=3, max_exp=2),
       mpolys(max_terms=2, max_exp=2))
def test_gcd_divides_and_sees_common_factor(a, b, c):
    u, v = a * c, b * c
    if u.is_zero() and v.is_zero():
        return
    g = gcd(u, v)
    # the gcd divides both arguments and is divisible by every common factor
    if not u.is_zero():
        assert try_divexact(u, g) is not None
    if not v.is_zero():
        assert try_divexact(v, g) is not None
    if not c.is_zero() and not (u.is_zero() or v.is_zero()):
        assert try_divexact(g, c) is not None


def test_gcd_oracle_one_sided_variable():
    # y1 occurs only in the first operand, so the gcd is free of it  [DERIVED]
    Y1 = MPoly.variable("y1")
    u = (X + Y) * (Y1 * Y1 + X)
    v = (X + Y) * (X - MPoly.const(1))
    assert gcd(u, v) == X + Y


def _nonconstant_xy(max_terms):
    return mpolys(max_terms=max_terms, max_exp=2).filter(
        lambda p: not p.is_const())


@settings(max_examples=40)
@given(_nonconstant_xy(3), _nonconstant_xy(3), _nonconstant_xy(3))
def test_gcd_with_a_known_common_factor(g, a, b):
    # g divides gcd(g a, g b); a divisor of the other operand is the gcd
    u, v = g * a, g * b
    assert try_divexact(gcd(u, v), g) is not None
    assert gcd(a * b, b) == b * (1 / leading_coeff(b))
    assert gcd(b, a * b) == b * (1 / leading_coeff(b))


def test_gcd_image_test_oracle():
    # x^2 + y^2 + 1 and x y + 3 are coprime; (x + y)(x - y) and
    # (x + y)(x y + 3) share x + y, which keeps both variables  [DERIVED]
    u, v = X * X + Y * Y + 1, X * Y + 3
    assert gcd(u, v) == 1
    u, v = (X + Y) * (X - Y), (X + Y) * v
    assert gcd(u, v) == X + Y
    # at y = 1 the common factor (y - 1) x + 1 has image 1: the leading
    # coefficients over x vanish there, so the point is skipped
    g = (Y - 1) * X + 1
    u, v = g * (X + 2), g * (X + 3)
    assert gcd(u, v) == g * (1 / leading_coeff(g))


# Values for the other variables when a coprimality is checked in one: far
# from the small integers where the test polynomials tend to share roots
SPECIALIZATIONS = [tuple(random.Random(k).randrange(MODULUS) for _ in range(3))
                   for k in range(4)]


def _image_mod(p, v, at):
    """Dense coefficients in v, lowest first, of p times its denominator,
    with every other variable put to its value in ``at``, mod MODULUS."""
    out = [0] * (p.degree_in(v) + 1)
    for e, c in p.numerators():
        i = 0
        for name, k in zip(p.vars, e):
            if name == v:
                i = k
            else:
                c = c * pow(at[name], k, MODULUS) % MODULUS
        out[i] = (out[i] + c) % MODULUS
    return out


def _euclid_mod(a, b):
    """The last nonzero remainder of Euclid on dense coefficient lists mod
    MODULUS, each ending in a nonzero coefficient."""
    while b:
        r, inv = list(a), pow(b[-1], -1, MODULUS)
        while len(r) >= len(b):
            f, shift = r[-1] * inv % MODULUS, len(r) - len(b)
            for i, c in enumerate(b):
                r[i + shift] = (r[i + shift] - f * c) % MODULUS
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return a


def _assert_coprime(a, b):
    """a and b share no factor: for each variable both have, at the first
    of SPECIALIZATIONS where neither leading coefficient in it vanishes,
    Euclid mod MODULUS ends in a nonzero constant.  A common factor in that
    variable would keep its degree there, since its leading coefficient
    divides both of theirs, and divide both images."""
    for v in sorted(set(a.vars) & set(b.vars)):
        others = sorted(set(a.vars + b.vars) - {v})
        for values in SPECIALIZATIONS:
            at = dict(zip(others, values))
            ia, ib = _image_mod(a, v, at), _image_mod(b, v, at)
            if ia[-1] and ib[-1]:
                break
        else:
            raise AssertionError("every specialization is singular in " + v)
        assert len(_euclid_mod(ia, ib)) == 1, (a, b, v)


@settings(max_examples=40)
@given(st.sampled_from([("x", "y"), ("x", "y", "y1")]).flatmap(
    lambda names: st.tuples(*(mpolys(names, max_terms=3, max_exp=2),) * 3)))
def test_gcd_is_certified_on_planted_factors(triple):
    # G = gcd(g a, g b) is monic, divides both operands and is divisible by
    # g, and its cofactors are coprime: G is then the monic gcd
    g, a, b = triple
    assume(not (g.is_zero() or a.is_zero() or b.is_zero()))
    u, v = g * a, g * b
    G = gcd(u, v)
    assert leading_coeff(G) == 1
    assert try_divexact(G, g) is not None
    cu, cv = try_divexact(u, G), try_divexact(v, G)
    assert cu is not None and cv is not None
    _assert_coprime(cu, cv)


def _image_gcds(monkeypatch, u, v, rest):
    """gcd(u, v), and the gcds over `rest` it took on the way, in order: for
    operands over (w,) + rest, these are the image gcds of interpolation.
    More than 8 of them fail the test instead of letting it run on."""
    seen = []
    original = polys.gcd

    def recorded(a, b):
        g = original(a, b)
        if a.vars == b.vars == rest:
            seen.append(g)
            assert len(seen) <= 8, "no gcd after 8 points: %r" % seen
        return g

    monkeypatch.setattr(polys, "gcd", recorded)
    return original(u, v), seen


def test_gcd_interpolation_restarts_after_an_unlucky_first_point(monkeypatch):
    # x has the smallest degree, so it is evaluated.  At x = 0 both operands
    # are (y + 1) y; from x = 1 on the image gcd is y + x + 1, of lower
    # degree, so interpolation restarts there and settles at x = 3
    # [DERIVED]
    g = X + Y + 1
    out, seen = _image_gcds(monkeypatch, g * (Y - X), g * (Y - 2 * X), ("y",))
    assert out == g
    assert seen == [Y * Y + Y, Y + 2, Y + 3, Y + 4]


def test_gcd_interpolation_skips_an_unlucky_later_point(monkeypatch):
    # at x = 1 both operands are (y + 2) y, an image gcd above the y + 1
    # seen at x = 0, so x = 1 is skipped  [DERIVED]
    g = X + Y + 1
    out, seen = _image_gcds(monkeypatch, g * (Y - X + 1), g * (Y - 2 * X + 2),
                            ("y",))
    assert out == g
    assert seen == [Y + 1, Y * Y + 2 * Y, Y + 3, Y + 4]


def test_gcd_interpolation_skips_a_vanishing_leading_coefficient(monkeypatch):
    # y has the smallest degree.  The leading coefficients over x vanish at
    # y = 2, where the common factor (y - 2) x + 1 has image 1; that point
    # is skipped, or the gcd would come out 1.  The images x - 1/2, x - 1
    # and x + 1 at y = 0, 1, 3, scaled by gamma = y - 2, fit (y - 2) x + 1
    # [DERIVED]
    g = (Y - 2) * X + 1
    out, seen = _image_gcds(monkeypatch, g * (X + 2), g * (X + 3), ("x",))
    assert out == X * Y - 2 * X + 1
    assert seen == [X - Fraction(1, 2), X - 1, X + 1]


@settings(max_examples=60)
@given(mpolys(("x", "y", "y1"), max_terms=3, max_exp=2),
       st.sampled_from(["x", "y"]).flatmap(lambda w: st.tuples(
           st.just(w), mpolys((w,), max_terms=3, max_exp=2))))
@example(a=Y.scaled(1, 2), wc=("x", 2 * X + 1))
@example(a=X * Y + 1, wc=("x", MPoly.const(3)))
def test_primitive_part_over_the_other_variables_is_the_divided_split(a, wc):
    # the quotient by the content over the variables other than w, and its
    # split, are the ones dividing p and splitting the quotient again give;
    # in the first example, y (2x + 1) / 2, the content x + 1/2 leaves the
    # quotient 2y over p's denominator 2, which cancels  [DERIVED]
    w, c = wc
    assume(not (a.is_zero() or c.is_zero()))
    p = a * c
    rest = tuple(v for v in p.vars if v != w)
    q, split, cont = polys._primitive_over(p, w, rest)
    assert cont == polys._content_over(polys._split(p, w, rest), w)[0]
    d = divexact(p, cont)
    assert (q.vars, q.num, q.den) == (d.vars, d.num, d.den)
    assert split == polys._split(d, w, rest)


def _over_xy_or_x(max_terms):
    return st.sampled_from([("x", "y"), ("x",)]).flatmap(
        lambda names: mpolys(names, max_terms=max_terms, max_exp=2))


@settings(max_examples=40)
@given(mpolys(("x", "y", "y1"), max_terms=3, max_exp=2), _over_xy_or_x(3),
       _over_xy_or_x(2))
def test_gcd_over_unequal_variable_sets(a, b, c):
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    u, v = a * c, b * c
    g = gcd(u, v)
    assert leading_coeff(g) == 1
    assert try_divexact(u, g) is not None
    assert try_divexact(v, g) is not None
    assert try_divexact(g, c) is not None
    assert gcd(v, u) == g
    assert _associate(g, c * gcd(a, b))


# -- cofactors and contents -------------------------------------------------------


@contextlib.contextmanager
def _refusing_gcd():
    """A context in which polys.gcd raises: a call shows a gcd was taken."""
    def refuse(a, b):
        raise AssertionError("gcd(%r, %r) was taken" % (a, b))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "gcd", refuse)
        yield


def _monic_or_one(g):
    return g is ONE or (not g.is_const() and leading_coeff(g) == 1)


@settings(max_examples=40)
@given(st.tuples(*(mpolys(max_terms=3, max_exp=2),) * 3))
def test_cofactors_split_off_the_monic_gcd(triple):
    # (g, ca, cb) = cofactors(h a, h b): g is monic or 1, the operands are
    # g times their cofactors, and the cofactors are coprime
    h, a, b = triple
    assume(not (h.is_zero() or a.is_zero() or b.is_zero()))
    u, v = h * a, h * b
    g, cu, cv = cofactors(u, v)
    assert _monic_or_one(g)
    assert u == g * cu and v == g * cv
    _assert_coprime(cu, cv)


@settings(max_examples=40)
@given(st.lists(mpolys(max_terms=3, max_exp=2), max_size=4),
       mpolys(max_terms=2, max_exp=2))
def test_content_divides_every_coefficient_once(coeffs, h):
    # (g, quots) = content(h c for c in coeffs): each coefficient is g times
    # its quotient, a zero keeps the quotient 0, and g is monic, 1, or 0 when
    # every coefficient is 0; the nonzero quotients have content 1
    assume(not h.is_zero())
    coeffs = [h * c for c in coeffs]
    g, quots = content(coeffs)
    assert len(quots) == len(coeffs)
    assert all(c == g * q for c, q in zip(coeffs, quots))
    assert all(q.is_zero() for c, q in zip(coeffs, quots) if c.is_zero())
    live = [q for q in quots if q]
    if not live:
        assert g is ZERO
        return
    assert _monic_or_one(g)
    rest = ZERO
    for q in live:
        rest = gcd(rest, q)
    assert rest == 1


@given(st.lists(mpolys(max_terms=3, max_exp=2), max_size=3),
       nonzero_rationals(), st.integers(0, 3))
def test_a_constant_coefficient_returns_the_inputs_with_no_gcd(
        coeffs, c, at):
    coeffs.insert(min(at, len(coeffs)), MPoly.const(c))
    with _refusing_gcd():
        g, quots = content(coeffs)
    assert g is ONE
    assert all(q is c for q, c in zip(quots, coeffs))


@pytest.mark.parametrize("a, b, g", [
    (X ** 2, X, X),
    (X ** 3 + X, X ** 2 + 1, X ** 2 + 1),
    (X * Y + X, Y + 1, Y + 1),
    (2 * X ** 2 + X, 2 * X + 1, X + Fraction(1, 2)),
])
def test_a_divisor_comes_before_its_multiple_and_takes_no_gcd(a, b, g):
    # one operand divides the other, so no gcd is taken in either order:
    # the search starts from the smallest coefficient by term count and
    # then by degree, which puts the divisor first at equal term counts,
    # and cofactors tries both exact divisions before a gcd.  A monic g is
    # its own monic form, denominator and all
    ca, cb = divexact(a, g), divexact(b, g)
    with _refusing_gcd():
        assert content([a, b]) == (g, [ca, cb])
        assert content([b, a]) == (g, [cb, ca])
        assert cofactors(a, b) == (g, ca, cb)
    assert _monic(g) is g


def _counted_gcd_calls(monkeypatch):
    """The (a, b) of every polys.gcd call from here on, recursive ones too."""
    calls = []
    real = polys.gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(polys, "gcd", counted)
    return calls


# three coefficients of one size, pairwise without a divisor: which two meet
# in the one gcd call depends on which comes first
_TIED = [(X + Y) * (X + 2 * Y), (X + Y) * (X + 3 * Y), (X + Y) * (2 * X + Y)]


def test_content_takes_the_same_gcds_in_every_input_order(monkeypatch):
    calls = _counted_gcd_calls(monkeypatch)
    seen = []
    for perm in itertools.permutations(range(3)):
        del calls[:]
        g, quots = content([_TIED[i] for i in perm])
        assert g == X + Y
        assert [q * g for q in quots] == [_TIED[i] for i in perm]
        seen.append(list(calls))
    assert seen[0] and all(c == seen[0] for c in seen)


def test_gcd_of_equal_polynomials_built_in_two_orders(monkeypatch):
    # p = A + B y1 over (x, y, y1), its numerator dict built with A's terms
    # first and with B y1's first; gcd(p, C) takes the content of A, B and
    # C, in an order that must not follow the dict's
    names = ("x", "y", "y1")
    a, b = ({e + (k,): c for e, c in p.terms.items()}
            for p, k in zip(_TIED, (0, 1)))
    first, second = MPoly(names, {**a, **b}), MPoly(names, {**b, **a})
    assert first == second and list(first.num) != list(second.num)
    calls = _counted_gcd_calls(monkeypatch)
    seen = []
    for p in (first, second):
        del calls[:]
        assert polys.gcd(p, _TIED[2]) == X + Y
        seen.append(list(calls))
    assert seen[0] and seen[0] == seen[1]


# -- canonical form --------------------------------------------------------------


def _assert_canonical(r):
    """Integer numerators over a reduced positive denominator, variables
    sorted and all used: the form under which == is equality of values."""
    assert isinstance(r, MPoly)
    assert r == MPoly(r.vars, r.terms)
    assert type(r.den) is int and r.den > 0
    numerators = r.numerators()
    assert all(type(c) is int and c for _, c in numerators)
    assert math.gcd(r.den, *(c for _, c in numerators)) == 1
    assert list(r.vars) == sorted(r.vars, key=var_rank)
    assert all(any(e[i] for e, _ in numerators) for i in range(len(r.vars)))


JET_NAMES = ("x", "y", "y1")


@settings(max_examples=30)
@given(mpolys(JET_NAMES, max_terms=3, max_exp=2),
       mpolys(JET_NAMES, max_terms=3, max_exp=2),
       nonzero_rationals(), st.sampled_from(JET_NAMES))
def test_results_are_canonical(a, b, c, name):
    results = [a + b, a - b, (a + b) - b, a - a, a * b, a * c, c * a, -a,
               a ** 2, a ** 0, a.derivative(name), gcd(a, b), _strip_monomial(a)[1]]
    results += a.coeffs_in(name) + list(a.coeffs_over({name, "y"}).values())
    # add_scaled adds c * b in one pass; the last one cancels back to a
    n, d = c.numerator, c.denominator
    results += [a.add_scaled(b, n, d), ZERO.add_scaled(b, n, d),
                (a - b * c).add_scaled(b, n, d)]
    assert results[-3] == a + b * c and results[-1] == a
    if not b.is_zero():
        results.append(divexact(a * b, b))
    for r in results:
        _assert_canonical(r)


@given(mpolys(JET_NAMES), st.integers(-12, 12),
       st.integers(-6, 6).filter(bool))
def test_scaled_is_the_product_with_a_fraction(p, n, d):
    r = p.scaled(n, d)
    assert r == p * Fraction(n, d)
    _assert_canonical(r)


@given(rationals(), rationals(), st.integers(-12, 12), st.integers(1, 6),
       st.integers(-6, 6).filter(bool))
def test_constant_scaled_sums_match_fractions(a, b, n, d, e):
    # the scalar branch: normalized, the shared ZERO when the sum cancels,
    # and the value and hash of the Fraction
    p, q = MPoly.const(a), MPoly.const(b)
    for r, want in ((p.add_scaled(q, n, d), a + Fraction(n, d) * b),
                    (p.add_scaled(p, -1), 0),
                    (q.scaled(n, e), b * Fraction(n, e))):
        assert r == want and hash(r) == hash(Fraction(want))
        assert as_const(r) == want
        _assert_canonical(r)
        if not want:
            assert r is ZERO


def _reference_sum(a, b, c):
    """a + c b from the ``Fraction`` terms, by the canonicalizing
    constructor."""
    names = sorted(set(a.vars) | set(b.vars), key=var_rank)
    out = {}
    for p, k in ((a, 1), (b, c)):
        for e, v in p.terms.items():
            at = dict(zip(p.vars, e))
            key = tuple(at.get(v, 0) for v in names)
            out[key] = out.get(key, 0) + k * v
    return MPoly(names, out)


@given(st.one_of(rationals().map(MPoly.const), mpolys(JET_NAMES)),
       st.one_of(rationals().map(MPoly.const), mpolys(JET_NAMES)),
       st.integers(-12, 12), st.integers(1, 6))
@example(a=MPoly.const(2), b=X + 1, n=-2, d=1)
@example(a=X + 3, b=MPoly.const(Fraction(3, 2)), n=2, d=1)
def test_scaled_sums_of_mixed_operands_match_the_reference(a, b, n, d):
    r = a.add_scaled(b, n, d)
    assert r == _reference_sum(a, b, Fraction(n, d))
    _assert_canonical(r)


@given(mpolys(JET_NAMES))
def test_leading_numerator_over_den_is_the_leading_coefficient(p):
    assume(not p.is_zero())
    assert Fraction(p.leading_numerator(), p.den) == leading_coeff(p)


# -- packed monomials -------------------------------------------------------------


def _exponents(n):
    # small exponents meet and tie often; large ones keep the total degree
    # of up to four variables below 2^31 and fill most of each field
    return st.tuples(*(st.one_of(st.integers(0, 3),
                                 st.integers(0, 2 ** 29 - 1)),) * n)


EXPONENT_PAIRS = st.integers(0, 4).flatmap(
    lambda n: st.tuples(_exponents(n), _exponents(n)))


@given(EXPONENT_PAIRS)
def test_packed_order_is_the_monomial_order(pair):
    a, b = pair
    assert (_pack(a) < _pack(b)) == (mono_key(a) < mono_key(b))
    assert (_pack(a) == _pack(b)) == (a == b)
    assert _unpack(_pack(a), len(a)) == a


@given(mpolys(JET_NAMES, max_terms=6))
def test_leading_term_and_printing_order_follow_the_monomial_order(p):
    assume(not p.is_zero())
    assert [e for e, _ in p.numerators()] == sorted(p.terms, key=mono_key,
                                                    reverse=True)
    assert leading(p)[0] == max(p.terms, key=mono_key)


@given(EXPONENT_PAIRS)
def test_guard_bits_decide_componentwise_divisibility(pair):
    a, b = pair
    divides = all(x >= y for x, y in zip(a, b))
    d = _pack(a) - _pack(b)
    assert (d >= 0 and not d & _guard(len(a))) == divides
    # the same test divides monomials, whose pruned variables differ
    names = ("x", "y", "y1", "y2")[:len(a)]
    q = try_divexact(MPoly(names, {a: 1}), MPoly(names, {b: 1}))
    assert (q is not None) == divides
    if divides:
        assert d == _pack(tuple(x - y for x, y in zip(a, b)))
        assert q == MPoly(names, {tuple(x - y for x, y in zip(a, b)): 1})


def _lifted(p, names):
    """p's numerators, keyed by the packed exponent tuples over `names`."""
    return {_pack(tuple(dict(zip(p.vars, e)).get(v, 0) for v in names)): c
            for e, c in p.numerators()}


@given(mpolys(("x", "y1", "z"), max_terms=4), mpolys(("y", "y1", "t1"),
                                                     max_terms=4))
def test_lifts_across_layouts_are_the_padded_exponent_tuples(p, q):
    # x < y < y1 < t1 < z: both operands gain fields between their own
    vs, a, b = p._aligned(q)
    assert vs == tuple(sorted(set(p.vars) | set(q.vars), key=var_rank))
    assert a == _lifted(p, vs) and b == _lifted(q, vs)
    for r, num in ((p, a), (q, b)):
        assert MPoly(vs, {_unpack(k, len(vs)): Fraction(c, r.den)
                          for k, c in num.items()}) == r


def test_total_degree_bound():
    # 2^31 - 1 is the largest total degree; at 2^31 a product, a power,
    # the constructor and the parser raise InputError naming the bound
    top = 2 ** 31 - 1
    p = Y ** top
    assert leading(p) == ((top,), 1) and p == MPoly(("y",), {(top,): 1})
    assert p.derivative("y") == top * Y ** (top - 1)
    assert leading(MPoly(("x", "y"), {(top - 5, 5): 1}))[0] == (top - 5, 5)
    assert try_divexact(p, Y ** 3) == Y ** (top - 3)
    for make in (lambda: Y ** (top + 1), lambda: p * X,
                 lambda: MPoly(("x", "y"), {(2 ** 30, 2 ** 30): 1}),
                 lambda: parse_ode("y''=y^2147483648")):
        with pytest.raises(InputError, match=r"below 2\^31"):
            make()
    assert parse_ode("y''=y^2147483647").n == 2


@pytest.mark.parametrize("terms", [{(1, 2): 1}, {(): 1}, {(-1,): 1}])
def test_constructor_rejects_malformed_exponents(terms):
    # one exponent per variable, none negative: a packed key could not
    # tell an extra or negative exponent from another monomial
    with pytest.raises(ValueError, match="exponent"):
        MPoly(("x",), terms)


@given(st.one_of(rationals(), st.integers(-2 ** 70, 2 ** 70)))
@example(-1)
@example(2 ** 61 + 5)
def test_constants_hash_as_their_value(c):
    # a constant compares equal to its value, so it must hash like it; the
    # examples are integers whose hash is not the integer itself: -1
    # hashes as -2, and 2^61 + 5 is reduced modulo the prime 2^61 - 1
    for v in (MPoly.const(c), RatFunc.const(c)):
        assert v == c and hash(v) == hash(c) == hash(Fraction(c))
        assert len({v, c}) == 1


def test_constants_zero_and_one_are_shared():
    # 0 and 1 are built once; gcd and the RatFunc constructor hand them out
    assert MPoly.const(0) is MPoly.const(Fraction(0)) is ZERO
    assert MPoly.const(1) is MPoly.const(Fraction(2, 2)) is ONE
    assert gcd(X + 1, Y + 2) is gcd(X, MPoly.const(3)) is ONE
    assert gcd(X + 1, X - 1) is gcd(X * Y + 1, X * Y - 1) is ONE
    assert content([X, Y])[0] is ONE
    assert RatFunc(X).den is ONE and RatFunc(ZERO, X).num is ZERO
    assert MPoly.const(2) == 2 and MPoly.const(Fraction(1, 3)).den == 3


# Every public operation and the gcd helpers, on operands (a, b); none may
# change the ``num`` of an operand, or the shared constants would change.
OPERATIONS = [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    lambda a, b: -a, lambda a, b: a.scaled(-3, 2),
    lambda a, b: a.add_scaled(b, -2, 3), lambda a, b: a ** 3,
    lambda a, b: a.derivative("x"), lambda a, b: a.derive({"y": b}),
    lambda a, b: a.coeffs_in("y"), lambda a, b: a.coeffs_over({"x"}),
    lambda a, b: from_coeffs([a, b], "y"),
    lambda a, b: b and try_divexact(a * b, b), lambda a, b: gcd(a, b),
    lambda a, b: content([a, b]), lambda a, b: _monic(a),
    lambda a, b: _strip_monomial(a), lambda a, b: (a.terms, a.numerators()),
    lambda a, b: RatFunc(a, b) if b else RatFunc(a),
]


@given(mpolys(), mpolys(), st.sampled_from(["drawn", "zero", "one"]))
def test_no_operation_changes_an_operand(a, b, second):
    b = {"drawn": b, "zero": ZERO, "one": ONE}[second]
    before = [(p, dict(p.num), p.den, p.vars) for p in (a, b, ZERO, ONE)]
    for op in OPERATIONS:
        op(a, b)
        op(b, a)
    for p, num, den, vars in before:
        assert (p.num, p.den, p.vars) == (num, den, vars)


@given(mpolys(JET_NAMES), st.sets(st.sampled_from(JET_NAMES)))
def test_coeffs_over_roundtrip(p, names):
    # sum over the keys of coefficient * monomial gives p back
    total = ZERO
    for key, c in p.coeffs_over(names).items():
        assert (c or not p) and not set(c.vars) & names
        for v, k in key:
            c = c * MPoly.variable(v) ** k
        total = total + c
    assert total == p


@st.composite
def ratfuncs(draw):
    num = draw(mpolys(JET_NAMES, max_terms=3, max_exp=2))
    den = draw(mpolys(JET_NAMES, max_terms=2, max_exp=2))
    assume(not den.is_zero())
    return RatFunc(num, den)


# Denominator factors the operands may share, repeated ones included:
# (x+y)^2 with (x+y)(x-y) leaves gcd x+y and the cofactors x+y and x-y.
SHARED_FACTORS = (MPoly.const(1), (X + Y) ** 2, (X + Y) * (X - Y),
                  (X + Y) ** 3 * Y, Y ** 2 * (X - Y))


@settings(max_examples=30)
@given(ratfuncs(), ratfuncs(), st.sampled_from(JET_NAMES),
       st.sampled_from(SHARED_FACTORS), st.sampled_from(SHARED_FACTORS))
def test_ratfunc_results_are_canonical(a, b, name, fa, fb):
    # every result, negations and powers too, which skip the gcd, must be
    # the pair the gcd and monic pass gives: coprime, denominator with
    # leading coefficient 1; the reference values are built from the cross
    # products by that pass
    a = RatFunc(a.num, a.den * fa)
    b = RatFunc(b.num, b.den * fb)
    results = [-a, -b, a + b, a - b, a - a, a * b,
               a.derive({name: RatFunc(ONE)}), a ** 2, a ** 0]
    assert a + b == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
    assert a * b == RatFunc(a.num * b.num, a.den * b.den)
    assert a ** 2 == RatFunc(a.num * a.num, a.den * a.den)
    if not b.is_zero():
        results += [a / b, b ** -2]
        assert a / b == RatFunc(a.num * b.den, a.den * b.num)
        assert b ** -2 == RatFunc(b.den * b.den, b.num * b.num)
    for r in results:
        assert r == RatFunc(r.num, r.den)
        assert leading_coeff(r.den) == 1


@given(mpolys(JET_NAMES, max_terms=4, max_exp=2),
       mpolys(JET_NAMES, max_terms=4, max_exp=2), rationals(),
       st.sampled_from(JET_NAMES))
def test_ratfunc_polynomial_results_match_the_constructor(p, q, c, name):
    # constants, variables, and sums and products of two polynomials are
    # the pairs the normalizing constructor gives for their polynomial
    # values
    a, b = RatFunc(p), RatFunc(q)
    assert a + b == RatFunc(p + q) and a - b == RatFunc(p - q)
    assert a * b == RatFunc(p * q)
    assert RatFunc.const(c) == RatFunc(MPoly.const(c))
    assert RatFunc.variable(name) == RatFunc(MPoly.variable(name))


@st.composite
def derivative_cases(draw):
    """(f, v) with f's denominator holding a factor free of v, the one kind
    of factor that can cancel from the derivative."""
    name = draw(st.sampled_from(JET_NAMES))
    free = draw(mpolys(tuple(n for n in JET_NAMES if n != name),
                       max_terms=2, max_exp=2))
    f = draw(ratfuncs())
    assume(not free.is_zero())
    shared = draw(st.sampled_from(SHARED_FACTORS))
    return RatFunc(f.num, f.den * free * shared), name


@settings(max_examples=40)
@given(derivative_cases())
def test_derivative_is_the_reduced_quotient_rule(case):
    f, name = case
    assert f.derive({name: RatFunc(ONE)}) == reference_derivative(f, name)


# Nonconstant factors for the images' denominators, so that the common
# denominator M of the images is not 1.
IMAGE_DENOMINATORS = ((X + Y) ** 2, (X + Y) * (X - Y), Y, X * X + 1)


@st.composite
def derivations(draw):
    """Images of some jet names, each a nonzero rational function whose
    denominator holds a factor from IMAGE_DENOMINATORS."""
    images = {}
    for name in draw(st.sets(st.sampled_from(JET_NAMES), min_size=1)):
        num = draw(mpolys(JET_NAMES, max_terms=3, max_exp=2))
        den = draw(mpolys(JET_NAMES, max_terms=2, max_exp=2))
        factor = draw(st.sampled_from(IMAGE_DENOMINATORS))
        images[name] = RatFunc(num or MPoly.const(1),
                               (den or MPoly.const(1)) * factor)
    return images


@settings(max_examples=40)
@given(derivative_cases(), derivations())
def test_derive_is_the_sum_of_partials_times_images(case, images):
    # D f = sum over v of df/dv * D(v), each df/dv by the quotient rule
    f, _ = case
    expected = RatFunc(ZERO)
    for v, w in images.items():
        expected = expected + reference_derivative(f, v) * w
    assert f.derive(images) == expected


def test_derivative_oracles():
    # d/dx((x y + 1)/y) = y/y: the factor y of Q is free of x and cancels;
    # d/dx(1/(x+y)^2) = -2/(x+y)^3 keeps Q R = (x+y)^3  [DERIVED]
    dx = {"x": RatFunc(ONE)}
    assert RatFunc(X * Y + 1, Y).derive(dx) == 1
    assert (RatFunc(MPoly.const(1), (X + Y) ** 2).derive(dx)
            == RatFunc(MPoly.const(-2), (X + Y) ** 3))
    f = RatFunc(X * X * Y - 3 * Y + 1, (X + Y) ** 2 * (X - Y) * Y)
    for name in ("x", "y"):
        assert f.derive({name: RatFunc(ONE)}) == reference_derivative(f, name)


def test_ratfunc_shared_denominator_oracle():
    # 1/(x+y)^2 + 1/((x+y)(x-y)) = 2x/((x+y)^2 (x-y)): the gcd x+y of the
    # denominators stays; (x-y)/(x+y)^2 + 2y/(x+y)^2 = 1/(x+y): the new
    # numerator cancels part of it
    u = RatFunc(MPoly.const(1), (X + Y) ** 2)
    v = RatFunc(MPoly.const(1), (X + Y) * (X - Y))
    assert u + v == RatFunc(2 * X, (X + Y) ** 2 * (X - Y))
    assert v - u == RatFunc(2 * Y, (X + Y) ** 2 * (X - Y))
    w = RatFunc(X - Y, (X + Y) ** 2)
    assert w + RatFunc(2 * Y, (X + Y) ** 2) == RatFunc(MPoly.const(1), X + Y)
    assert (w + v - v).den == w.den


@pytest.mark.parametrize("op", [
    lambda r: "a" / r, lambda r: "a" - r, lambda r: r / "a",
    lambda r: r - "a", lambda r: object() + r, lambda r: object() * r,
], ids=["rtruediv", "rsub", "truediv", "sub", "radd", "rmul"])
def test_ratfunc_rejects_foreign_operands(op):
    # an operand that is not a number, MPoly or RatFunc is Python's own
    # TypeError for the two operand types, not a recursion or an error
    # about None
    with pytest.raises(TypeError, match="unsupported operand") as err:
        op(RatFunc(ONE))
    assert "NoneType" not in str(err.value)
    assert 1 / RatFunc(X) == RatFunc(MPoly.const(1), X)
    assert 1 - RatFunc(X) == RatFunc(1 - X)


def test_canonical_form_oracles():
    # a variable left behind or an unreduced denominator would break ==
    Y1 = MPoly.variable("y1")
    assert ((X + Y) - Y).vars == ("x",)
    assert (X * Y1 - Y1 * X + Y).vars == ("y",)
    half_x = Fraction(1, 2) * X
    assert (half_x + half_x).den == 1 and half_x + half_x == X
    assert (Fraction(2, 3) * X * Fraction(3, 2)) == X
    assert MPoly(("y1", "x"), {(1, 0): Fraction(2, 4), (0, 0): 0}).vars == ("y1",)
    assert MPoly(("y", "x"), {(1, 2): 1}) == X * X * Y


def test_var_rank_orders_jet_names():
    # x < y < y' < y'' < ... so that leading terms pick the top jet
    names = ["x", "y", "y1", "y2", "y10"]
    assert sorted(names, key=var_rank) == names
