"""Parsing and printing of scalar ODEs in quasi-linear normal form.

Accepted input shapes are ``y'' + <expr> = 0`` and ``y'' = <expr>`` (any
derivative order >= 2 on the left).  The parser evaluates as it parses.  In
ODE text (and in ``parse_expr`` without ``call``) each grammar rule returns
an exact quotient of two integer polynomials, kept unreduced as coefficient
dicts packed over the one variable layout the tokens name, in ``MPoly``'s
key format: no gcd is taken and no RatFunc is built per operation.  Each
part of such a value has at most the degree the text would have with every
+, - and / read as * and every exponent taken positive; a sum over one
denominator keeps it.  The total degree bound of ``polys`` holds for these
unreduced parts.  The equation's two sides are subtracted and the
difference is reduced once, as a RatFunc, before the order is read, so
``y''/y'' = y`` has order 0.  The result is solved for the highest
derivative: with num = lead*y^(n) + low over den, gcd(low, lead) =
gcd(num, lead), which is gcd(num, den) = 1 when lead == den, so the second
gcd runs only when lead is another polynomial.  Equations that are not
linear in their highest derivative are rejected.  Transformation
expressions stay in RatFunc arithmetic, since ``call`` needs its argument
reduced.

Operator precedence: ^ binds tighter than unary minus, which binds tighter
than * and /, which bind tighter than + and -.  ^ takes a bare (possibly
negative) integer exponent; parenthesized exponents and chained ^ are
rejected so that y^(k) stays unambiguous — parenthesize the base instead,
as in (x^2)^3.  Implicit multiplication is rejected.  Derivative
markers are primes (up to four) or ``y^(k)``; ``y^2`` is a square while
``y^(2)`` is a second derivative.  Parentheses and function calls nest at
most MAX_NESTING deep.  exp and log are admitted only in point
transformation expressions, never in ODE text, and derivative markers only
in ODE text, never in transformation expressions.  Integer literals are runs
of decimal digits; any other character outside the grammar, such as the
superscript "²", is an OdeSyntaxError at its position, and so is a literal
longer than ``int`` converts.
"""
from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import InputError, NotQuasiLinear, OdeSyntaxError, OrderTooLow
from .jets import jet_name, jet_order, jet_order_of
from .polys import MPoly, packed_product, var_rank, variable_keys
from .ratfunc import RatFunc

MAX_PRIMES = 4
MAX_NESTING = 100


# -- tokenizer ----------------------------------------------------------------

# Whitespace matches no group, so ``finditer`` steps over it.  ``\d`` holds
# the decimal digits, which ``int`` reads; "²" is a word character, no ``\d``.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<primes>'+)"
                    r"|(?P<sym>[-+*/^()=])|(?P<bad>\S)")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "bad":
            raise OdeSyntaxError(f"unexpected character {tok!r}", m.start())
        out.append((tok if kind == "sym" else kind, tok, m.start()))
    out.append(("end", "", len(text)))
    return out


def _jet_variables(tokens) -> Tuple[str, ...]:
    """x, y and the derivatives of y that the tokens name, sorted by rank.
    A marker the parser will reject may add a name; none is missed."""
    names = set()
    for i, (kind, text, _) in enumerate(tokens):
        if kind != "name" or text not in ("x", "y"):
            continue
        nxt = tokens[i + 1]
        if text == "y" and nxt[0] == "primes":
            text = jet_name(len(nxt[1]))
        elif (text == "y" and nxt[0] == "^" and tokens[i + 2][0] == "("
              and tokens[i + 3][0] == "int"):
            try:
                text = jet_name(int(tokens[i + 3][1]))
            except ValueError:  # too long; the parser reports it
                continue
        names.add(text)
    return tuple(sorted(names, key=var_rank))


_UNIT = {0: 1}   # shared: no operation writes into an operand's dict


class _Frac:
    """num/den for two integer polynomials, each a coefficient dict packed
    over one layout of ``n`` variables (``polys``).  Nothing is reduced: a
    sum over equal denominators keeps the denominator, and every other
    operation multiplies the parts the way fractions do."""

    __slots__ = ("num", "den", "n")

    def __init__(self, num: Dict[int, int], den: Dict[int, int], n: int):
        self.num, self.den, self.n = num, den, n

    def _times(self, a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
        if a is _UNIT or b is _UNIT:
            return b if a is _UNIT else a
        return packed_product(a, b, self.n) if a and b else {}

    def _power(self, a: Dict[int, int], k: int) -> Dict[int, int]:
        # by squaring, as MPoly.__pow__, so a degree overflow reads the same
        out, base = _UNIT, a
        while k:
            if k & 1:
                out = self._times(out, base)
            base = self._times(base, base) if k > 1 else base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.num

    def __neg__(self) -> "_Frac":
        return _Frac({k: -c for k, c in self.num.items()}, self.den, self.n)

    def __add__(self, o: "_Frac") -> "_Frac":
        if not o.num or not self.num:
            return self if self.num else o
        if self.den == o.den:
            a, b, den = self.num, o.num, self.den
        else:
            a, b = self._times(self.num, o.den), self._times(o.num, self.den)
            den = self._times(self.den, o.den)
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _Frac(out, den, self.n)

    def __sub__(self, o: "_Frac") -> "_Frac":
        return self + -o

    def __mul__(self, o: "_Frac") -> "_Frac":
        return _Frac(self._times(self.num, o.num),
                     self._times(self.den, o.den), self.n)

    def __truediv__(self, o: "_Frac") -> "_Frac":
        return _Frac(self._times(self.num, o.den),
                     self._times(self.den, o.num), self.n)

    def __pow__(self, k: int) -> "_Frac":
        num, den = (self.num, self.den) if k >= 0 else (self.den, self.num)
        return _Frac(self._power(num, abs(k)), self._power(den, abs(k)),
                     self.n)


class _Parser:
    def __init__(self, text: str,
                 call: Optional[Callable[[str, RatFunc], RatFunc]] = None):
        self.tokens = _tokenize(text)
        self.k = 0
        self.call = call
        self.depth = 0
        if call is not None:
            self.number, self.variable = RatFunc.const, RatFunc.variable
            return
        self.vars = _jet_variables(self.tokens)
        n = len(self.vars)
        keys = dict(zip(self.vars, variable_keys(n)))
        self.number = lambda c: _Frac({0: c} if c else {}, _UNIT, n)
        self.variable = lambda v: _Frac({keys[v]: 1}, _UNIT, n)

    def normalized(self, value: _Frac) -> RatFunc:
        """The value as a RatFunc: its one gcd."""
        return RatFunc(MPoly.from_packed(self.vars, value.num),
                       MPoly.from_packed(self.vars, value.den))

    def peek(self, ahead: int = 0):
        k = self.k + ahead   # take stops at the closing "end" token
        return self.tokens[k] if k < len(self.tokens) else self.tokens[-1]

    def take(self):
        t = self.tokens[self.k]
        if t[0] != "end":
            self.k += 1
        return t

    def expect(self, kind: str, what: str):
        t = self.take()
        if t[0] != kind:
            raise OdeSyntaxError(f"expected {what}", t[2])
        return t

    def integer(self, what: str) -> int:
        t = self.expect("int", what)
        try:
            return int(t[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise OdeSyntaxError("integer literal is too long", t[2]) from None

    def expect_end(self, what: str) -> None:
        t = self.peek()
        if t[0] != "end":
            raise OdeSyntaxError(f"unexpected {t[1]!r} {what}", t[2])

    # expr := term (("+"|"-") term)*
    def expr(self):
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    # term := unary (("*"|"/") unary)*
    def term(self):
        value = self.unary()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            elif rhs.is_zero():
                raise InputError("division by zero in input expression")
            else:
                value = value / rhs
        return value

    # unary := "-"* factor
    def unary(self):
        negate = False
        while self.peek()[0] == "-":
            self.take()
            negate = not negate
        value = self.factor()
        return -value if negate else value

    # factor := atom ["^" exponent]; chained ^ is rejected
    def factor(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        if self.peek()[0] == "(":
            raise OdeSyntaxError(
                "parenthesized exponents are not allowed; "
                "derivative markers y^(k) attach to bare y only", self.peek()[2])
        exp = self._exponent()
        if self.peek()[0] == "^":
            raise OdeSyntaxError("chained ^ is ambiguous; parenthesize", self.peek()[2])
        if exp < 0 and base.is_zero():
            raise InputError("zero raised to a negative power")
        return base ** exp

    def _exponent(self) -> int:
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        val = self.integer("an integer exponent")
        return -val if neg else val

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            return self.number(self.integer("a number"))
        if kind == "(":
            self.take()
            return self._nested(pos)
        if kind == "name":
            self.take()
            if val in ("exp", "log"):
                if self.call is None:
                    raise OdeSyntaxError(
                        f"{val} is only allowed in transformation expressions", pos)
                self.expect("(", f"'(' after {val}")
                return self.call(val, self._nested(pos))
            if val == "x":
                if self.peek()[0] == "primes":
                    raise OdeSyntaxError(
                        "derivative markers attach to y only", self.peek()[2])
                return self.variable(val)
            if val == "y":
                return self._dependent()
            raise OdeSyntaxError(f"unknown symbol {val!r}", pos)
        raise OdeSyntaxError("expected a number, coordinate or parenthesis", pos)

    def _nested(self, pos: int):
        """The expression after an opening parenthesis, up to its closing one."""
        if self.depth == MAX_NESTING:
            raise OdeSyntaxError(
                f"parentheses and calls nest at most {MAX_NESTING} deep", pos)
        self.depth += 1
        value = self.expr()
        self.expect(")", "a closing parenthesis")
        self.depth -= 1
        return value

    def _dependent(self):
        kind, val, p2 = self.peek()
        if kind == "primes":
            self.take()
            order = len(val)
            if order > MAX_PRIMES:
                raise OdeSyntaxError(
                    f"at most {MAX_PRIMES} primes; write y^({order})", p2)
        elif kind == "^" and self.peek(1)[0] == "(":
            self.take()  # ^
            self.take()  # (
            order = self.integer("a derivative order")
            self.expect(")", "a closing parenthesis")
        else:
            return self.variable("y")
        if self.call is not None:
            raise OdeSyntaxError("derivatives are not allowed here", p2)
        return self.variable(jet_name(order))


def parse_expr(text: str, *,
               call: Optional[Callable[[str, RatFunc], RatFunc]] = None
               ) -> RatFunc:
    """Evaluate one expression to an exact rational function.

    Without ``call`` the text is a jet expression: x and y become the
    variables of the same name, ``y'`` and ``y^(k)`` the jet variables, and
    exp/log are rejected.  With it the text is a point transformation
    expression: ``call(func, arg)`` evaluates ``exp``/``log``, and
    derivatives are rejected.  Syntax errors raise OdeSyntaxError with
    position.
    """
    p = _Parser(text, call)
    value = p.expr()
    p.expect_end("(implicit multiplication is not supported)")
    return value if call is not None else p.normalized(value)


# -- the ODE type --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class OdeSpec:
    """y^(n) + f(x, y, ..., y^(n-1)) = 0 with rational f."""

    n: int
    f: RatFunc

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be at least 1")
        if jet_order(self.f) > self.n - 1:
            raise ValueError("f involves the highest derivative")

    def __str__(self) -> str:
        return print_ode(self)


def parse_ode(text: str) -> OdeSpec:
    p = _Parser(text)
    lhs = p.expr()
    p.expect("=", "'='")
    diff = lhs - p.expr()
    p.expect_end("after the equation")
    rf = p.normalized(diff)
    num = rf.num
    if num.is_zero():
        raise OrderTooLow("equation reduces to 0 = 0")
    n = max((jet_order_of(v) for v in num.vars), default=-1)
    if n < 2:
        raise OrderTooLow(
            f"highest derivative has order {max(n, 0)}; certification needs order >= 2")
    top = jet_name(n)
    if num.degree_in(top) != 1:
        raise NotQuasiLinear(
            f"equation is nonlinear in its highest derivative y^({n})")
    low, lead = num.coeffs_in(top)
    # gcd(low, lead) = gcd(num, lead), which is 1 when lead is rf.den
    return OdeSpec(n, RatFunc(low, lead, coprime=lead == rf.den))


# -- printing -------------------------------------------------------------------


def deriv_marker(k: int, name: str = "y") -> str:
    if k == 0:
        return name
    if 1 <= k <= MAX_PRIMES:
        return name + "'" * k
    return f"{name}^({k})"


def _display_var(v: str) -> str:
    k = jet_order_of(v)
    if k >= 0:
        return deriv_marker(k)
    if v == "x":
        return "x"
    raise ValueError(f"variable {v!r} has no surface syntax")


def signed_sum(terms: Iterable[Tuple[Fraction, str]]) -> str:
    """(coefficient, body) terms as a sum, e.g. "-z^2 + 3/2*z - 1"; ``body``
    is "" for a constant.  Terms with coefficient 0 and magnitudes of 1
    before a body are left out; no term left reads "0"."""
    out = []
    for c, body in terms:
        if c:
            mag = abs(c)
            out.append(" - " if c < 0 else " + ")
            out.append(str(mag) if not body else body if mag == 1
                       else f"{mag}*{body}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _monomial(mono, names) -> str:
    vars_part = []
    for v, e in zip(names, mono):
        if not e:
            continue
        d = _display_var(v)
        if e == 1:
            vars_part.append(d)
        elif d in ("x", "y"):
            vars_part.append(f"{d}^{e}")
        else:
            vars_part.append(f"({d})^{e}")
    return "*".join(vars_part)


def format_mpoly(p: MPoly) -> str:
    return signed_sum((Fraction(c, p.den), _monomial(e, p.vars))
                      for e, c in p.numerators())


def _den_needs_parens(p: MPoly) -> bool:
    if len(p.num) != 1:
        return True
    (mono, c), = p.terms.items()
    nvars = sum(1 for e in mono if e)
    return c != 1 or nvars != 1


def format_ratfunc(r: RatFunc) -> str:
    num_s = format_mpoly(r.num)
    if r.den == MPoly.const(1):
        return num_s
    if len(r.num.num) > 1:
        num_s = f"({num_s})"
    den_s = format_mpoly(r.den)
    if _den_needs_parens(r.den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def print_ode(o: OdeSpec) -> str:
    head = deriv_marker(o.n)
    if o.f.is_zero():
        return f"{head} = 0"
    s = format_ratfunc(o.f)
    if s.startswith("-"):
        return f"{head} - {s[1:]} = 0"
    return f"{head} + {s} = 0"
