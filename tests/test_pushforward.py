"""Pushforward oracle: known linear equations through point transformations."""
import json
import random
import re
from fractions import Fraction

import pytest

import lieode.polys
import lieode.pushforward
import lieode.ratfunc
from lieode import analyze
from lieode.determining import determining_system
from lieode.errors import (InputError, InternalInvariantError,
                           NonRationalInstance)
from lieode.parsing import print_ode
from lieode.pushforward import (SHIPPED_PAIRS, PointTransformation,
                                TranscendentalRegistry, corpus_sources,
                                default_corpus, is_staircase_class,
                                push_linear, shipped_transformations)
from lieode.ratfunc import RatFunc
from lieode.recovery import CharPoly, affine_class

from conftest import (BENCH_DATA, reference_push_linear, slot_keyed,
                      substitute_generator)

F = Fraction


def roots(*rs):
    return CharPoly.from_roots([F(r) for r in rs])


EXP = ("exp(y)", "x")


# -- hand-checked images --------------------------------------------------------------


def test_exp_image_of_free_particle():
    # u = e^y turns u'' = 0 into y'' + (y')^2 = 0  [DERIVED]
    inst = push_linear(roots(0, 0), PointTransformation(*EXP))
    assert print_ode(inst.ode) == "y'' + (y')^2 = 0"
    assert inst.expected_case == "trivial"
    assert inst.label == "z^2 under u=exp(y), t=x"


def test_exp_image_of_cubic_with_spread_spectrum():
    # spectrum {-1, 0, 1} is an arithmetic progression, so the image is
    # still reducible to u''' = 0 by a further point change
    inst = push_linear(roots(-1, 0, 1), PointTransformation(*EXP))
    assert print_ode(inst.ode) == "y''' + (y')^3 + 3*y'*y'' - y' = 0"
    assert inst.expected_case == "trivial"


def test_exp_image_of_repeated_root_cubic():
    # spectrum {0, 1, 1} is not an arithmetic progression
    inst = push_linear(roots(0, 1, 1), PointTransformation(*EXP))
    assert (print_ode(inst.ode)
            == "y''' + (y')^3 + 3*y'*y'' - 2*(y')^2 - 2*y'' + y' = 0")
    assert inst.expected_case == "constant-coefficients"


def test_logarithmic_time_change():
    # t = e^x turns u''' = 0 into the Euler operator in x: the image picks
    # up the spectrum {0, 1, 2} while staying rational  [DERIVED]
    T = PointTransformation("y", "exp(x)")
    inst = push_linear(roots(0, 0, 0), T)
    assert print_ode(inst.ode) == "y''' - 3*y'' + 2*y' = 0"
    assert inst.expected_case == "trivial"


def test_log_time_variable():
    # t = log(x) has D_x(t) = 1/x, a symbol image with a denominator:
    # u'' = u turns into x^2 y'' + x y' - y = 0  [DERIVED]
    inst = push_linear(roots(-1, 1), PointTransformation("y", "log(x)"))
    assert print_ode(inst.ode) == "y'' + (x*y' - y)/x^2 = 0"


def test_exp_of_a_rational_argument():
    # u = y e^(1/x) has D_x(e^(1/x)) = -e^(1/x)/x^2: u'' = u turns into
    # y'' - 2 y'/x^2 + (2x + 1) y/x^4 - y = 0  [DERIVED]
    inst = push_linear(roots(-1, 1), PointTransformation("y*exp(1/x)", "x"))
    assert (print_ode(inst.ode)
            == "y'' + (-x^4*y - 2*x^2*y' + 2*x*y + y)/x^4 = 0")


def test_a_call_adjoined_twice_is_one_symbol():
    # both exp(y) calls name one symbol, so psi cancels to y; two symbols
    # would leave t1 - t2 + y, whose image is not rational
    T = PointTransformation("exp(y)-exp(y)+y", "x")
    assert T.psi == RatFunc.variable("y")
    assert (push_linear(roots(-1, 1, 2), T).ode
            == push_linear(roots(-1, 1, 2), PointTransformation("y", "x")).ode)


def test_non_staircase_source_is_rejected_under_time_change():
    T = PointTransformation("y", "exp(x)")
    with pytest.raises(NonRationalInstance, match="outside the rational class"):
        push_linear(roots(-1, 0, 1), T)


def test_reciprocal_image():
    inst = push_linear(roots(0, 0), PointTransformation("1/y", "x"))
    assert print_ode(inst.ode) == "y'' - 2*(y')^2/y = 0"


# -- the polynomial chain against the normalized one ----------------------------------


def _outcome(push, p, psi, phi):
    """(image, expected case) of push(p, T), or the type of what it raises."""
    try:
        inst = push(p, PointTransformation(psi, phi))
    except Exception as exc:    # the type is the outcome
        return type(exc)
    return inst.ode, inst.expected_case


def _translated(text, b, d):
    """text under x -> x + b, y -> y + d; transformation texts hold no
    derivative, so every x and y is a coordinate."""
    shift = {"x": "(x+%d)" % b, "y": "(y+%d)" % d}
    return re.sub(r"\b[xy]\b", lambda m: shift[m.group(0)], text)


def _bench_oracle_cases():
    """Every pair of bench/data/oracle.json, plain and under the four
    translations of the bench, x -> x + b, y -> y + d for b, d in {1, 2}."""
    data = json.loads((BENCH_DATA / "oracle.json").read_text(encoding="utf-8"))
    for item in data["inputs"]:
        p = CharPoly(tuple(F(c) for c in item["source_poly"]))
        for b, d in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]:
            yield pytest.param(p, _translated(item["psi"], b, d),
                               _translated(item["phi"], b, d),
                               id="%s@%d,%d" % (item["id"], b, d))


_LEAVES = ["x", "y", "1", "2", "-1"]


def _drawn_expr(rng, depth):
    """A small transformation text: sums, products and quotients of x, y and
    small integers, with exp and log calls nested up to ``depth`` deep."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        return rng.choice(_LEAVES)
    if r < 0.55:
        return "%s(%s)" % (rng.choice(["exp", "log"]),
                           _drawn_expr(rng, depth - 1))
    return "(%s%s%s)" % (_drawn_expr(rng, depth - 1), rng.choice("+-*/"),
                         _drawn_expr(rng, depth - 1))


def _drawn_cases(count=150, seed=5):
    """``count`` (source, psi, phi) with a symbolically nonzero Jacobian,
    drawn by one seeded generator; sources have integer roots in [-2, 2]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        psi, phi = _drawn_expr(rng, 2), _drawn_expr(rng, 2)
        source = roots(*(rng.randint(-2, 2) for _ in range(rng.randint(2, 3))))
        try:
            PointTransformation(psi, phi)
        except InputError:
            continue
        out.append((source, psi, phi))
    return out


@pytest.mark.parametrize("p", corpus_sources(), ids=str)
@pytest.mark.parametrize("psi, phi", SHIPPED_PAIRS,
                         ids=["u=%s, t=%s" % pair for pair in SHIPPED_PAIRS])
def test_shipped_pairs_match_the_normalized_chain(p, psi, phi):
    assert (_outcome(push_linear, p, psi, phi)
            == _outcome(reference_push_linear, p, psi, phi))


@pytest.mark.parametrize("p, psi, phi", _bench_oracle_cases())
def test_bench_pairs_match_the_normalized_chain(p, psi, phi):
    assert (_outcome(push_linear, p, psi, phi)
            == _outcome(reference_push_linear, p, psi, phi))


@pytest.mark.parametrize("source, psi, phi, want", [
    # nested symbols: t2 = exp(t1) over t1 = log(y) cancels to y, and
    # t2 = log(t1) over t1 = exp(y) has D_x(t2) = y'
    ((0, 0), "exp(log(y))", "x", "y'' = 0"),
    ((0, 0, 0), "log(exp(y))", "x", "y''' = 0"),
    ((0, 0, 0), "y", "exp(exp(x))", NonRationalInstance),
    ((-1, 0, 1), "y*exp(exp(x))", "x", NonRationalInstance),
    # log time changes: symbol images with a denominator, so M is not 1
    ((-1, 1), "y", "log(x)", "y'' + (x*y' - y)/x^2 = 0"),
    ((0, 0, 0), "y", "log(x)", None),
    ((0, 1, 1), "y", "log(x+1)", None),
    ((-1, 1, 2), "y", "log(x+y)", None),
    ((1, 2, 3), "log(y)", "log(x)", None),
    ((0, 0), "y/x", "log(x)", None),
    # a constant D_x(phi) other than 1, which folds into B
    ((1, 2, -3), "exp(y)/x", "-2*x/3", None),
])
def test_hand_picked_pairs_match_the_normalized_chain(
        source, psi, phi, want):
    p = roots(*source)
    got = _outcome(push_linear, p, psi, phi)
    assert got == _outcome(reference_push_linear, p, psi, phi)
    if isinstance(want, str):
        assert print_ode(got[0]) == want
    elif want is not None:
        assert got is want


def test_drawn_pairs_match_the_normalized_chain():
    kinds = set()
    for p, psi, phi in _drawn_cases():
        got = _outcome(push_linear, p, psi, phi)
        assert got == _outcome(reference_push_linear, p, psi, phi), \
            (str(p), psi, phi)
        kinds.add(got if isinstance(got, type) else got[1])
    # the draw reaches both cases and images outside the rational class
    assert kinds == {"trivial", "constant-coefficients", NonRationalInstance}


def test_one_total_derivative_and_no_gcd_before_the_final_reduction(
        monkeypatch):
    # D_x(phi) is taken once, when the transformation is built, so
    # push_linear makes no total_dx call; the chain runs on polynomials:
    # after the symbols' derivation, the next gcd is one that
    # RatFunc(low, lead) takes, and that RatFunc is the only one built
    pairs = [((0, 1, 3), "1/(x+y)", "x"), ((-1, 0, 1, 3), "y/x", "1/x"),
             ((0, 1, 1), "y*exp(1/x)", "x*y"),
             ((0, 0, 0), "log(y)", "log(x+y)")]
    want = [reference_push_linear(roots(*r), PointTransformation(psi, phi)).ode
            for r, psi, phi in pairs]
    transformations = [PointTransformation(psi, phi) for _, psi, phi in pairs]
    events = []
    total_dx = TranscendentalRegistry.total_dx
    derivation = lieode.pushforward.polynomial_derivation
    normalize = RatFunc.__init__
    gcd = lieode.polys.gcd

    def counted_total_dx(self, f):
        events.append("total_dx")
        return total_dx(self, f)

    def counted_derivation(images):
        out = derivation(images)
        events.append("derivation returned")
        return out

    def counted_normalize(self, num, den=None):
        events.append("RatFunc")
        normalize(self, num, den)

    def counted_gcd(a, b):
        events.append("gcd")
        return gcd(a, b)

    for module in (lieode.polys, lieode.ratfunc):
        monkeypatch.setattr(module, "gcd", counted_gcd)
    monkeypatch.setattr(TranscendentalRegistry, "total_dx", counted_total_dx)
    monkeypatch.setattr(lieode.pushforward, "polynomial_derivation",
                        counted_derivation)
    monkeypatch.setattr(RatFunc, "__init__", counted_normalize)
    for (r, _, _), T, ode in zip(pairs, transformations, want):
        events.clear()
        assert push_linear(roots(*r), T).ode == ode
        assert "total_dx" not in events
        assert events.count("derivation returned") == 1
        after = events[events.index("derivation returned") + 1:]
        assert after[0] == "RatFunc" and events.count("RatFunc") == 1
        assert "gcd" in after       # the counters see the final reduction


# -- images that once exceeded the time budget ---------------------------------------
# The pairs that bench/data/oracle.json lists as over_budget_pairs, untranslated.
# Each arithmetic-progression spectrum makes the image reducible to u^(n) = 0,
# so the image has the maximal algebra, m = n + 4 (Mahomed-Leach).


@pytest.mark.parametrize("source, psi, phi", [
    ((0, 0, 0), "y/(1+x^2)", "x"),
    ((-1, 0, 1, 2), "y", "x+y"),
    ((-1, 0, 1), "y", "x*y"),
])
def test_once_over_budget_pairs_are_trivial(source, psi, phi):
    inst = push_linear(roots(*source), PointTransformation(psi, phi))
    assert inst.expected_case == "trivial"
    cert = analyze(inst.ode).certificate
    assert cert.m == inst.ode.n + 4
    assert cert.case == "trivial"


def test_shifted_corpus_image_is_trivial():
    # corpus-50 (the u=y/x, t=1/x image of the roots {-1, 0, 1, 2}) under
    # x -> x+1, y -> y+1, one of bench/data/corpus.json's over_budget_shifts
    text = ("y'''' + (8*(x+1)^6*y''' + 2*(x+1)^5*y''' + 12*(x+1)^5*y''"
            " + 6*(x+1)^4*y'' - (x+1)^3*y'' - 2*(x+1)*y' + 2*(y+1))"
            "/(x+1)^7 = 0")
    cert = analyze(text).certificate
    assert (cert.n, cert.m, cert.case) == (4, 8, "trivial")


# -- staircase spectra ----------------------------------------------------------------


def test_staircase_classification():
    assert is_staircase_class(roots(0, 0))          # every degree-2 spectrum
    assert is_staircase_class(roots(3, 7))
    assert is_staircase_class(roots(-1, 0, 1))      # arithmetic progression
    assert is_staircase_class(roots(2, 2, 2))       # all equal
    assert is_staircase_class(roots(1, 3, 5, 7))
    assert not is_staircase_class(roots(0, 1, 1))
    assert not is_staircase_class(roots(0, 1, 3))
    assert not is_staircase_class(roots(-1, 0, 1, 3))


def test_staircase_class_is_built_once_per_degree(monkeypatch):
    # the staircase's class depends only on the degree, so repeated calls
    # classify only their own spectra  [DERIVED]
    seen = []

    def counting_affine_class(p):
        seen.append(p)
        return affine_class(p)

    monkeypatch.setattr(lieode.pushforward, "affine_class",
                        counting_affine_class)
    sources = [roots(0, 1, 3), roots(-1, 0, 1, 3), roots(0, 1, 1),
               roots(2, 5, 7), roots(1, 2, 4, 9), roots(1, 3, 5, 7)] * 2
    for p in sources:
        is_staircase_class(p)
    staircases = [p for p in seen if p not in sources]
    assert len(seen) - len(staircases) == len(sources)
    assert len(staircases) == len({p.degree for p in staircases}) <= 2


# -- degenerate inputs ----------------------------------------------------------------


def test_vanishing_jacobian_is_rejected():
    with pytest.raises(InputError, match="Jacobian"):
        PointTransformation("x", "x")
    with pytest.raises(InputError, match="Jacobian"):
        PointTransformation("x*y", "x*y")


@pytest.mark.parametrize("psi, phi", [("exp(x*y)", "x*y"),
                                      ("log(x+y)", "exp(x+y)")])
def test_vanishing_jacobian_through_adjoined_symbols(psi, phi):
    # psi is a function of phi: exp(t) for t = x*y, log(log(t)) for
    # t = exp(x+y); the Jacobian cancels only through the symbols' chain
    # rule  [DERIVED]
    with pytest.raises(InputError, match="Jacobian"):
        PointTransformation(psi, phi)


def test_jacobian_of_an_adjoined_symbol():
    # phi_x psi_y - phi_y psi_x = exp(y) for u = exp(y), t = x, nonzero as
    # a polynomial in the symbol t1 = exp(y)
    T = PointTransformation("exp(y)", "x")
    assert T.dphi == RatFunc.one()


def test_total_derivative_above_first_order_in_y1_is_an_engine_error(
        monkeypatch):
    # D_x of a function on the plane is f_x + f_y y'; a numerator of degree
    # 2 in y' breaks the Jacobian's reading of f_x and f_y
    y1 = RatFunc.variable("y1")
    monkeypatch.setattr(TranscendentalRegistry, "total_dx",
                        lambda self, f: y1 * y1 + X)
    with pytest.raises(InternalInvariantError, match="linear in y'"):
        PointTransformation("y", "x")


def test_first_order_source_is_rejected():
    with pytest.raises(InputError, match="order at least 2"):
        push_linear(CharPoly((F(1),)), PointTransformation(*EXP))


# -- generators transported backwards -------------------------------------------------


def _satisfies(ode, xi, eta):
    system = determining_system(ode)
    return all(substitute_generator(slot_keyed(eq), xi, eta).is_zero()
               for eq in system)


X, Y = RatFunc.variable("x"), RatFunc.variable("y")
ZERO, ONE = RatFunc.zero(), RatFunc.one()


def test_pulled_back_generators_satisfy_the_image_system():
    # d_t, u d_u and t d_t are symmetries of u'' = 0; under u = e^y, t = x
    # they pull back to d_x, d_y and x d_x  [DERIVED]
    inst = push_linear(roots(0, 0), PointTransformation(*EXP))
    for xi, eta in [(ONE, ZERO), (ZERO, ONE), (X, ZERO)]:
        assert _satisfies(inst.ode, xi, eta)


def test_pulled_back_non_symmetry_fails_the_system():
    # under u = 1/y, t = x: u d_u pulls back to -y d_y, a symmetry of the
    # image of u'' = 0, and u^2 d_u to -d_y, which is not one  [DERIVED]
    inst = push_linear(roots(0, 0), PointTransformation("1/y", "x"))
    assert _satisfies(inst.ode, ZERO, -Y)
    assert not _satisfies(inst.ode, ZERO, -ONE)


# -- the shipped corpus ---------------------------------------------------------------


def test_corpus_size_and_determinism():
    corpus = default_corpus()
    assert len(corpus) == 51
    labels = [inst.label for inst in corpus]
    assert len(set(labels)) == len(labels)
    assert labels == [inst.label for inst in default_corpus()]


def test_corpus_building_blocks():
    assert len(shipped_transformations()) == 5
    sources = corpus_sources()
    assert sorted({p.degree for p in sources}) == [2, 3, 4]


def test_corpus_instances_are_well_formed():
    for inst in default_corpus():
        assert 2 <= inst.ode.n == inst.source_poly.degree <= 4
        assert inst.expected_case == (
            "trivial" if is_staircase_class(inst.source_poly)
            else "constant-coefficients")


def test_engine_agrees_with_the_oracle(corpus_reports):
    # the full pipeline must reproduce each instance's provenance: the
    # certificate case, and in the constant-coefficient case the affine
    # root class of the source polynomial
    for inst, report in corpus_reports:
        assert report.certificate.case == inst.expected_case, inst.label
        if inst.expected_case == "constant-coefficients":
            assert report.recovery is not None, inst.label
            assert report.recovery.affine == affine_class(inst.source_poly), \
                inst.label
        else:
            assert report.recovery.affine == affine_class(
                CharPoly((F(0),) * inst.ode.n)), inst.label
