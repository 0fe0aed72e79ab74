"""Pushforward oracle: known linear equations through point transformations."""
from fractions import Fraction

import pytest

import lieode.pushforward
from lieode import analyze
from lieode.determining import determining_system
from lieode.errors import InputError, NonRationalInstance
from lieode.parsing import print_ode
from lieode.pushforward import (OracleInstance, PointTransformation,
                                corpus_sources, default_corpus,
                                is_staircase_class, push_linear,
                                shipped_transformations)
from lieode.ratfunc import RatFunc
from lieode.recovery import CharPoly, affine_class

from conftest import slot_keyed, substitute_generator

F = Fraction


def roots(*rs):
    return CharPoly.from_roots([F(r) for r in rs])


EXP = PointTransformation("exp(y)", "x")


# -- hand-checked images --------------------------------------------------------------


def test_exp_image_of_free_particle():
    # u = e^y turns u'' = 0 into y'' + (y')^2 = 0  [DERIVED]
    inst = push_linear(roots(0, 0), EXP)
    assert print_ode(inst.ode) == "y'' + (y')^2 = 0"
    assert inst.expected_case == "trivial"
    assert inst.label == "z^2 under u=exp(y), t=x"


def test_exp_image_of_cubic_with_spread_spectrum():
    # spectrum {-1, 0, 1} is an arithmetic progression, so the image is
    # still reducible to u''' = 0 by a further point change
    inst = push_linear(roots(-1, 0, 1), EXP)
    assert print_ode(inst.ode) == "y''' + (y')^3 + 3*y'*y'' - y' = 0"
    assert inst.expected_case == "trivial"


def test_exp_image_of_repeated_root_cubic():
    # spectrum {0, 1, 1} is not an arithmetic progression
    inst = push_linear(roots(0, 1, 1), EXP)
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


def test_first_order_source_is_rejected():
    with pytest.raises(InputError, match="order at least 2"):
        push_linear(CharPoly((F(1),)), EXP)


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
    inst = push_linear(roots(0, 0), EXP)
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
