"""Equation grammar: precedence, derivative markers, normal form, printing."""
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieode.errors import (InputError, NotQuasiLinear, OdeSyntaxError,
                           OrderTooLow)
from lieode.jets import jet_name
from lieode.parsing import (MAX_NESTING, MAX_PRIMES, OdeSpec, _tokenize,
                            deriv_marker, format_mpoly, parse_expr, parse_ode,
                            print_ode)
from lieode.polys import MPoly
from lieode.pushforward import PointTransformation, TranscendentalRegistry
from lieode.ratfunc import RatFunc

from conftest import bench_texts, rationals, reference_tokenize


def rf(text):
    return parse_expr(text)


def jet(k):
    return RatFunc.variable(jet_name(k))


# -- expression grammar -----------------------------------------------------------


def test_unary_minus_binds_looser_than_power():
    # -y^2 is -(y^2), not (-y)^2  [TRIVIAL]
    assert rf("-y^2") == -(RatFunc.variable("y") ** 2)
    assert rf("-y^2") != RatFunc.variable("y") ** 2


def test_chained_power_rejected():
    # chained ^ is ambiguous and refused; parenthesizing the base works
    with pytest.raises(OdeSyntaxError, match="chained"):
        rf("2^3^2")
    assert rf("(2^3)^2") == RatFunc.const(Fraction(64))


def test_negative_exponent_is_written_bare():
    assert rf("x^-2") == RatFunc.const(1) / (RatFunc.variable("x") ** 2)
    # parenthesized exponents would collide with the y^(k) marker syntax
    with pytest.raises(OdeSyntaxError):
        rf("x^(-2)")


def test_prime_markers_versus_powers():
    # y^(2) is a derivative, y^2 a square
    assert rf("y''") == rf("y^(2)")
    assert rf("y^2") == RatFunc.variable("y") ** 2
    assert rf("y^(0)") == RatFunc.variable("y")


def test_prime_limit_and_suggestion():
    assert rf("y" + "'" * MAX_PRIMES) == RatFunc.variable("y4")
    with pytest.raises(OdeSyntaxError, match=r"y\^\(5\)"):
        rf("y'''''")


def test_primes_attach_to_dependent_variable_only():
    with pytest.raises(OdeSyntaxError):
        rf("x''")


def test_implicit_multiplication_rejected():
    with pytest.raises(OdeSyntaxError, match="implicit multiplication"):
        rf("2 y")


def test_error_position_is_reported():
    with pytest.raises(OdeSyntaxError) as err:
        rf("y + %")
    assert "position 4" in str(err.value)
    assert err.value.position == 4


def test_literals_are_runs_of_decimal_digits():
    # "²" is a digit to str.isdigit, but no integer literal: it is reported
    # where it stands, as every other character outside the grammar
    for text, pos in (("y''=y^²", 6), ("y''=2²*y", 5), ("y''=²", 4)):
        with pytest.raises(OdeSyntaxError) as err:
            parse_ode(text)
        assert err.value.position == pos
    # a decimal digit of another script is a digit
    assert parse_ode("y''=٣*y") == parse_ode("y''=3*y")


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_LIMIT, reason="int conversion has no digit limit")
def test_literal_past_the_int_conversion_limit_is_a_syntax_error():
    digits = "1" * (_INT_LIMIT + 1)
    for text in ("y'' = %s*y" % digits, "y'' = y^%s" % digits,
                 "y^(%s) = y" % digits):
        with pytest.raises(OdeSyntaxError, match="too long") as err:
            parse_ode(text)
        assert err.value.position == text.index(digits)


def test_division_by_zero_constant():
    with pytest.raises(InputError):
        rf("y/(2 - 2)")


def test_functions_only_in_transformation_context():
    with pytest.raises(OdeSyntaxError):
        parse_expr("exp(y)")
    with pytest.raises(OdeSyntaxError, match="only allowed in transformation"):
        parse_ode("y'' = exp(y)")
    # with a call hook, the hook receives the function name and its
    # evaluated argument
    seen = []

    def call(func, arg):
        seen.append((func, arg))
        return RatFunc.variable("t1")

    assert parse_expr("exp(y)", call=call) == RatFunc.variable("t1")
    assert seen == [("exp", RatFunc.variable("y"))]


def test_derivatives_can_be_disallowed():
    # with ``call`` the text is a transformation expression in x and y alone
    call = TranscendentalRegistry().adjoin
    for text, pos in [("y'", 1), ("y^(2)", 1), ("x + y^(0)", 5)]:
        with pytest.raises(OdeSyntaxError,
                           match="derivatives are not allowed here") as err:
            parse_expr(text, call=call)
        assert err.value.position == pos


# The same two guards hold wherever an expression is read: the ODE text and
# a point transformation.
_GUARD_ENTRY_POINTS = {
    "ode": lambda e: parse_ode("y'' = " + e),
    "transformation": lambda e: PointTransformation(e, "x"),
}


@pytest.mark.parametrize("entry", sorted(_GUARD_ENTRY_POINTS))
@pytest.mark.parametrize("expr", ["1/(y-y)", "x/(2*y - y - y)",
                                  "(y-y)^-2", "(x - x)^-1 + y"])
def test_zero_guards_hold_at_every_entry_point(entry, expr):
    with pytest.raises(InputError, match="zero"):
        _GUARD_ENTRY_POINTS[entry](expr)


def test_nesting_limit():
    assert rf("(" * MAX_NESTING + "y" + ")" * MAX_NESTING) == RatFunc.variable("y")
    text = "y + " + "(" * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1)
    with pytest.raises(OdeSyntaxError) as err:
        rf(text)
    # reported at the first parenthesis beyond the limit
    assert err.value.position == 4 + MAX_NESTING


# -- equation normal form ---------------------------------------------------------


def test_parse_ode_simple():
    ode = parse_ode("y'' = 0")
    assert ode.n == 2
    assert ode.f.is_zero()


def test_parse_ode_moves_rhs():
    # y'' = y^2 becomes y'' + (-y^2) = 0  [TRIVIAL]
    ode = parse_ode("y'' = y^2")
    assert ode.n == 2
    assert ode.f == -(jet(0) * jet(0))


def test_parse_ode_divides_leading_coefficient():
    # 2*y'' + y' = 0 → f = y'/2  [DERIVED]
    ode = parse_ode("2*y'' + y' = 0")
    assert ode.f == jet(1) / RatFunc.const(2)
    # x*y''' - y = 0 → f = -y/x
    ode = parse_ode("x*y''' - y = 0")
    assert ode.n == 3
    assert ode.f == -jet(0) / RatFunc.variable("x")


def test_parse_ode_top_derivative_may_sit_on_the_right():
    ode = parse_ode("y = y''")
    assert ode.n == 2
    assert ode.f == -jet(0)


def test_parse_ode_high_order_marker():
    assert parse_ode("y^(5) = 0").n == 5


def test_not_quasi_linear():
    with pytest.raises(NotQuasiLinear):
        parse_ode("(y'')^2 = y")
    with pytest.raises(NotQuasiLinear):
        parse_ode("y''*y'' + y = 0")


def test_order_too_low():
    with pytest.raises(OrderTooLow):
        parse_ode("y' = y")
    with pytest.raises(OrderTooLow):
        parse_ode("y'' - y'' = y")   # top derivative cancels


def test_ode_spec_validates_its_order():
    # an order below one, and an f involving y^(n) itself, are not y^(n) + f = 0
    with pytest.raises(ValueError):
        OdeSpec(0, RatFunc.variable("x"))
    with pytest.raises(ValueError):
        OdeSpec(2, jet(2))
    assert OdeSpec(2, jet(1) * jet(0)).n == 2


def test_missing_equals_sign():
    with pytest.raises(OdeSyntaxError):
        parse_ode("y'' + y")


# -- printing round trip ----------------------------------------------------------


def test_print_ode_normal_form():
    assert print_ode(parse_ode("y'' = y^2")) == "y'' - y^2 = 0"
    assert print_ode(parse_ode("y'' = 0")) == "y'' = 0"


def test_format_mpoly_strings():
    cases = {
        "-(y')^2*y''/2 + 3*x*y - 1": "-1/2*(y')^2*y'' + 3*x*y - 1",
        "(y')^3 - y'": "(y')^3 - y'",
        "y^2 - 7/3": "y^2 - 7/3",
        "-x": "-x",
        "-1": "-1",
        "5": "5",
        "y^(5)^2 + y^(6)": "(y^(5))^2 + y^(6)",
    }
    for text, printed in cases.items():
        assert format_mpoly(rf(text).num) == printed
    assert format_mpoly(MPoly.zero()) == "0"


def test_deriv_marker_shapes():
    assert deriv_marker(0) == "y"
    assert deriv_marker(2) == "y''"
    assert deriv_marker(MAX_PRIMES + 1) == "y^(5)"
    assert deriv_marker(3, "u") == "u'''"


@st.composite
def ode_specs(draw):
    """Random quasi-linear equations with small rational f."""
    n = draw(st.integers(2, 4))
    coords = [RatFunc.variable("x")] + [jet(k) for k in range(n)]
    num = RatFunc.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = RatFunc.const(draw(rationals(max_abs=5, max_den=3)))
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from(coords))
        num = num + term
    den = draw(st.sampled_from([
        RatFunc.one(),
        jet(0),
        RatFunc.one() + jet(0) * jet(0),
        RatFunc.variable("x"),
    ]))
    return OdeSpec(n, num / den)


@given(ode_specs())
def test_print_parse_roundtrip(ode):
    assert parse_ode(print_ode(ode)) == ode


# -- grammar totality ---------------------------------------------------------------

# Grammar pieces, integer literals, and characters just outside the grammar:
# a superscript digit, a decimal digit of another script, a non-Latin
# letter, a vulgar fraction, a no-break space, punctuation and "_".
_ALPHABET = ["x", "y", "'", "(", ")", "+", "-", "*", "/", "^", "=", "exp",
             "log"] + [str(d) for d in range(13)] + \
    ["²", "٣", "λ", "½", "\u00a0", "!", "_"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=14))
def test_parse_ode_is_total_over_the_grammar_alphabet(tokens):
    # tokens are space-separated, so exponents stay at most 12 and any
    # power expansion stays small; a text either parses or is an InputError
    text = " ".join(tokens)
    try:
        assert isinstance(parse_ode(text), OdeSpec)
    except InputError:
        pass
    try:
        value = parse_expr(text, call=TranscendentalRegistry().adjoin)
    except InputError:
        return
    assert isinstance(value, RatFunc)


# -- the tokenizer against the character loop it replaced --------------------------


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except OdeSyntaxError as exc:
        return str(exc), exc.position


def _outside_the_classes(ch: str) -> bool:
    """Alphanumeric, but neither a letter nor a decimal digit ("²", "½")."""
    return ch.isalnum() and not ch.isalpha() and not ch.isdecimal()


@settings(max_examples=200)
@given(st.text(st.one_of(st.sampled_from("xy'()+-*/^=_ \t\n0123456789٣λé"),
                         st.characters().filter(
                             lambda ch: not _outside_the_classes(ch)))))
def test_tokenize_matches_the_character_loop(text):
    assert (_tokens_or_error(_tokenize, text)
            == _tokens_or_error(reference_tokenize, text))


def test_tokenize_matches_the_character_loop_on_the_bench_texts():
    texts = bench_texts()
    assert len(texts) == 146 + 3 * 14
    for text in texts:
        assert _tokenize(text) == reference_tokenize(text)
