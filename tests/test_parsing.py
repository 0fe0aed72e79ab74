"""Equation grammar: precedence, derivative markers, normal form, printing."""
import ast
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieode import analyze, ratfunc
from lieode.errors import (InputError, NotQuasiLinear, OdeSyntaxError,
                           OrderTooLow)
from lieode.jets import jet_name, jet_order_of
from lieode.parsing import (MAX_NESTING, MAX_PRIMES, OdeSpec, _tokenize,
                            deriv_marker, format_mpoly, parse_expr, parse_ode,
                            print_ode)
from lieode.polys import ONE, ZERO
from lieode.pushforward import PointTransformation, TranscendentalRegistry
from lieode.ratfunc import RatFunc

from conftest import (BENCH_DATA, bench_texts, rationals,
                      reference_tokenize)


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
    # the hook receives its argument reduced, and the value it returns
    # enters the arithmetic: (t1*(y-1))/(y-1) reduces to t1
    y = RatFunc.variable("y")
    assert (parse_expr("exp((y^2 - 1)/(y - 1))*(y - 1)/(y - 1)", call=call)
            == RatFunc.variable("t1"))
    assert seen == [("exp", y), ("exp", y + 1)]


def test_derivatives_can_be_disallowed():
    # with ``call`` the text is a transformation expression in x and y alone
    call = TranscendentalRegistry().adjoin
    for text, pos in [("y'", 1), ("y^(2)", 1), ("x + y^(0)", 5)]:
        with pytest.raises(OdeSyntaxError,
                           match="derivatives are not allowed here") as err:
            parse_expr(text, call=call)
        assert err.value.position == pos


# The same guards hold wherever an expression is read, the ODE text and a
# point transformation: the two zero guards, and the degree bound, which
# holds for the unreduced parts, so (x/x)^k expands x^k.
_GUARD_ENTRY_POINTS = {
    "ode": lambda e: parse_ode("y'' = " + e),
    "transformation": lambda e: PointTransformation(e, "x"),
}

_DEGREE_2_31 = ("a monomial of total degree 2147483648: total degrees must "
                "stay below 2^31 = 2147483648")

_GUARDS = {
    "1/(y-y)": "division by zero in input expression",
    "x/(2*y - y - y)": "division by zero in input expression",
    "(y-y)^-2": "zero raised to a negative power",
    "(x - x)^-1 + y": "zero raised to a negative power",
    "x^2147483648": _DEGREE_2_31,
    "(x/x)^2147483648": _DEGREE_2_31,
}


@pytest.mark.parametrize("entry", sorted(_GUARD_ENTRY_POINTS))
@pytest.mark.parametrize("expr", list(_GUARDS))
def test_zero_guards_hold_at_every_entry_point(entry, expr):
    with pytest.raises(InputError) as err:
        _GUARD_ENTRY_POINTS[entry](expr)
    assert str(err.value) == _GUARDS[expr]


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
    # an order below two, which no stage handles, is an input error, for
    # analyze too; an f involving y^(n) itself is not y^(n) + f = 0
    for n in (0, 1):
        with pytest.raises(OrderTooLow):
            OdeSpec(n, RatFunc.variable("x"))
    for f in (jet(0), RatFunc(ZERO)):
        with pytest.raises(OrderTooLow):
            analyze(OdeSpec(1, f))
    with pytest.raises(ValueError):
        OdeSpec(2, jet(2))
    assert OdeSpec(2, jet(1) * jet(0)).n == 2


def test_ode_spec_compares_and_hashes_by_value():
    # two spellings of one equation are one OdeSpec: the oracle benchmark
    # checks each pushed image against the parsed frozen text this way
    a, b = parse_ode("y'' = x*y"), parse_ode("y'' - y*x = 0")
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a == OdeSpec(2, a.f)
    assert a != OdeSpec(3, a.f)
    assert a != parse_ode("y'' = y")
    assert a != "y'' = x*y"


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
    assert format_mpoly(ZERO) == "0"


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
    num = RatFunc(ZERO)
    for _ in range(draw(st.integers(1, 3))):
        term = RatFunc.const(draw(rationals(max_abs=5, max_den=3)))
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from(coords))
        num = num + term
    den = draw(st.sampled_from([
        RatFunc(ONE),
        jet(0),
        RatFunc(ONE) + jet(0) * jet(0),
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


# -- parse_ode against an independent evaluation --------------------------------
#
# An expression tree is a tuple: ("int", k) for k >= 0, ("var", k) for
# y^(k) (k = -1 for x), ("neg", a), (op, a, b) for op in "+-*/", and
# ("^", a, k).  ``_text`` prints a tree with a parenthesis around every
# compound operand, ``_value`` evaluates it with RatFunc, normalized after
# every operation, and ``_reference_ode`` solves lhs - rhs for the highest
# derivative.  Neither calls the parser; the bench texts are read into
# trees by Python's own parser.

X_, Y_ = ("var", -1), ("var", 0)


def _text(t) -> str:
    kind = t[0]
    if kind == "int":
        return str(t[1])
    if kind == "var":
        k = t[1]
        return "x" if k < 0 else "y" + "'" * k if k <= MAX_PRIMES else f"y^({k})"
    if kind == "neg":
        return "-" + _operand(t[1])
    if kind == "^":
        return f"{_operand(t[1])}^{t[2]}"
    return f"{_operand(t[1])} {kind} {_operand(t[2])}"


def _operand(t) -> str:
    return _text(t) if t[0] in ("int", "var") else f"({_text(t)})"


def _value(t) -> RatFunc:
    kind = t[0]
    if kind == "int":
        return RatFunc.const(t[1])
    if kind == "var":
        return RatFunc.variable("x" if t[1] < 0 else jet_name(t[1]))
    if kind == "neg":
        return -_value(t[1])
    if kind == "^":
        base = _value(t[1])
        if t[2] < 0 and base.is_zero():
            raise InputError("zero raised to a negative power")
        return base ** t[2]
    a, b = _value(t[1]), _value(t[2])
    if kind == "/":
        if b.is_zero():
            raise InputError("division by zero in input expression")
        return a / b
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _reference_ode(lhs, rhs) -> OdeSpec:
    num = (_value(lhs) - _value(rhs)).num
    n = max((jet_order_of(v) for v in num.vars), default=-1)
    if n < 2:
        raise OrderTooLow("order below 2")
    if num.degree_in(jet_name(n)) != 1:
        raise NotQuasiLinear("nonlinear in the highest derivative")
    low, lead = num.coeffs_in(jet_name(n))
    return OdeSpec(n, RatFunc(low, lead))


def _outcome(make):
    """The value ``make()`` returns, or the type of the InputError it raises."""
    try:
        return make()
    except InputError as exc:
        return type(exc)


def _tree(node):
    """A tree from Python's syntax tree of an expression."""
    if isinstance(node, ast.Constant):
        return ("int", node.value)
    if isinstance(node, ast.Name):
        return X_ if node.id == "x" else ("var", int(node.id[1:] or 0))
    if isinstance(node, ast.UnaryOp):
        return ("neg", _tree(node.operand))
    if isinstance(node.op, ast.Pow):
        k = node.right
        return ("^", _tree(node.left),
                -k.operand.value if isinstance(k, ast.UnaryOp) else k.value)
    op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
    return (op[type(node.op)], _tree(node.left), _tree(node.right))


def _equation_trees(text):
    """(lhs, rhs) trees of an equation text, read by Python's parser."""
    text = re.sub(r"y\^\((\d+)\)", r"y\1", text)
    text = re.sub(r"y('+)", lambda m: "y%d" % len(m[1]), text)
    return tuple(_tree(ast.parse(side.strip().replace("^", "**"),
                                 mode="eval").body)
                 for side in text.split("="))


def _translated(t, b, d):
    """t under x -> x + b, y -> y + d; derivatives of y stay."""
    if t == X_:
        return ("+", X_, ("int", b))
    if t == Y_:
        return ("+", Y_, ("int", d))
    return tuple(_translated(c, b, d) if isinstance(c, tuple) else c
                 for c in t)


def _bench_equations():
    texts = []
    for name in ("corpus", "controls", "rational", "oracle"):
        data = json.loads((BENCH_DATA / (name + ".json")).read_text(
            encoding="utf-8"))
        texts += [item.get("text", item.get("image"))
                  for item in data["inputs"]]
    return texts


def test_parse_ode_matches_the_reference_on_the_bench_texts():
    # each bench equation as written and as printed from its tree, and
    # under the four translations of the bench
    texts = _bench_equations()
    assert len(texts) == 51 + 12 + 10 + 14
    for text in texts:
        lhs, rhs = _equation_trees(text)
        want = _reference_ode(lhs, rhs)
        assert parse_ode(text) == want, text
        assert parse_ode(_text(lhs) + " = " + _text(rhs)) == want, text
        for b, d in ((1, 1), (1, 2), (2, 1), (2, 2)):
            sides = [_translated(t, b, d) for t in (lhs, rhs)]
            shifted = " = ".join(map(_text, sides))
            assert parse_ode(shifted) == _reference_ode(*sides), shifted


# Denominators are drawn from one pool, so a sum repeats some and shares
# factors of others; a factor with y'' over itself cancels the top
# derivative.
_TOP = ("var", 2)
_DENOMINATORS = [
    ("+", X_, ("int", 1)),
    ("^", ("+", X_, ("int", 1)), 2),
    ("-", ("*", X_, Y_), ("int", 1)),
    ("+", _TOP, Y_),
    ("*", ("+", X_, ("int", 1)), ("+", _TOP, Y_)),
    _TOP,
]


def _extend(children):
    dens = st.sampled_from(_DENOMINATORS)
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("/"), children, dens),
        st.tuples(children, dens).map(
            lambda t: ("/", ("*", t[0], t[1]), t[1])),
        st.tuples(st.just("^"), children, st.integers(-2, 2)),
        st.tuples(st.just("neg"), children),
    )


_EXPRS = st.recursive(
    st.one_of(st.tuples(st.just("int"), st.integers(0, 3)),
              st.tuples(st.just("var"), st.integers(-1, 3))),
    _extend, max_leaves=8)


@settings(max_examples=150)
@given(_EXPRS, _EXPRS, st.booleans())
def test_parse_ode_matches_the_reference_on_drawn_equations(lhs, rhs, lead):
    if lead:
        lhs = ("+", _TOP, lhs)
    text = _text(lhs) + " = " + _text(rhs)
    assert (_outcome(lambda: parse_ode(text))
            == _outcome(lambda: _reference_ode(lhs, rhs))), text


def test_the_order_is_read_after_the_one_normalization():
    with pytest.raises(OrderTooLow):
        parse_ode("y''/y'' = y")
    with pytest.raises(OrderTooLow):
        parse_ode("(y''+1)/(y''+1) + y' = 0")
    with pytest.raises(NotQuasiLinear):
        parse_ode("y''*y'' = y''")
    assert parse_ode("y'' = 0^0") == OdeSpec(2, RatFunc.const(-1))


def _gcd_count(monkeypatch, text):
    """(parse_ode(text), the number of gcds RatFunc took for it)."""
    calls = []
    real = ratfunc.gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ratfunc, "gcd", counted)
    return parse_ode(text), len(calls)


# each text with the gcds of its one normalization: none over a constant
# denominator
_NORMALIZING_GCDS = {
    "y''' + ((y')^2 + x*y)/(y' + 1) = 0": 1,
    "y''' = ((y')^2 + x*y)/(y' + 1)": 1,
    "y'' + (x^2 - 1)*y/(x + 1) = 0": 1,
    "y'' = 6*y^2 + x": 0,
    "y'' = x^0 + 1/y": 1,
}


@pytest.mark.parametrize("text", list(_NORMALIZING_GCDS))
def test_one_normalizing_gcd_when_the_lead_is_the_denominator(monkeypatch,
                                                              text):
    ode, calls = _gcd_count(monkeypatch, text)
    assert calls == _NORMALIZING_GCDS[text]
    assert ode == _reference_ode(*_equation_trees(text))


def test_a_lead_coefficient_takes_the_second_gcd(monkeypatch):
    # the difference has denominator 1, so the lead's gcd is the only one
    ode, calls = _gcd_count(monkeypatch, "(x^2 - 1)*y'' = (x + 1)*y'")
    assert calls == 1
    assert ode == OdeSpec(2, -jet(1) / (RatFunc.variable("x") - 1))


# (text, error type, message) of inputs the parser refuses
_REFUSED = [
    ("y'' = 1/(y - y)", InputError, "division by zero in input expression"),
    ("y'' = (x - x)^-2", InputError, "zero raised to a negative power"),
    ("y'' = 1/(y'' - y'') + 1", InputError,
     "division by zero in input expression"),
    ("y''=y^2147483648", InputError, _DEGREE_2_31),
    ("y'' = x^2147483647*x", InputError, _DEGREE_2_31),
    ("y'' + y", OdeSyntaxError, "expected '=' (at position 7)"),
    ("y'' = y = 0", OdeSyntaxError,
     "unexpected '=' after the equation (at position 8)"),
    ("y'' = y''' ^ 2 ^ 3", OdeSyntaxError,
     "chained ^ is ambiguous; parenthesize (at position 15)"),
    ("y'' = x'", OdeSyntaxError,
     "derivative markers attach to y only (at position 7)"),
    ("y''''' = 0", OdeSyntaxError,
     "at most 4 primes; write y^(5) (at position 1)"),
    ("y'' = exp(y)", OdeSyntaxError,
     "exp is only allowed in transformation expressions (at position 6)"),
    ("y'' = z", OdeSyntaxError, "unknown symbol 'z' (at position 6)"),
    ("y'' = (y", OdeSyntaxError,
     "expected a closing parenthesis (at position 8)"),
    ("y'' = y^(x)", OdeSyntaxError,
     "expected a derivative order (at position 9)"),
    ("y' = y", OrderTooLow,
     "highest derivative has order 1; certification needs order >= 2"),
    ("y'' - y'' = y", OrderTooLow,
     "highest derivative has order 0; certification needs order >= 2"),
    ("(y'')^2 = y", NotQuasiLinear,
     "equation is nonlinear in its highest derivative y^(2)"),
]


@pytest.mark.parametrize("text,kind,message", _REFUSED)
def test_refused_inputs_keep_their_error(text, kind, message):
    with pytest.raises(InputError) as err:
        parse_ode(text)
    assert type(err.value) is kind and str(err.value) == message
