"""Parsing and printing of scalar ODEs in quasi-linear normal form.

Accepted input shapes are ``y'' + <expr> = 0`` and ``y'' = <expr>`` (any
derivative order >= 2 on the left).  The parser evaluates as it parses,
with one arithmetic for ODE and transformation text: each grammar rule
returns an exact quotient of two ``MPoly`` values, kept unreduced, so no
gcd is taken and no RatFunc is built per operation.  A sum over one
denominator keeps it, and every other operation multiplies the parts.
Each part has at most the degree the text would have with every +, - and
/ read as * and every exponent taken positive, and the total degree bound
of ``polys`` holds for these unreduced parts.  exp and log receive their
argument reduced, as a RatFunc, so equal arguments name one symbol.
``parse_expr`` reduces its value once, at the end.  ``parse_ode``
subtracts the equation's two sides and reduces the difference once before
the order is read, so ``y''/y'' = y`` has order 0.  The result is solved
for the highest derivative: with num = lead*y^(n) + low over den,
gcd(low, lead) = gcd(num, lead), which is gcd(num, den) = 1 when lead ==
den, so the second gcd runs only when lead is another polynomial.
Equations that are not linear in their highest derivative are rejected.

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

import re
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import InputError, NotQuasiLinear, OdeSyntaxError, OrderTooLow
from .jets import jet_name, jet_order, jet_order_of
from .polys import ONE, MPoly
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


class _Frac:
    """num/den for two ``MPoly`` values, kept unreduced: a sum over equal
    denominators keeps the denominator, and every other operation
    multiplies the parts the way fractions do."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = ONE):
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __neg__(self) -> "_Frac":
        return _Frac(-self.num, self.den)

    def __add__(self, o: "_Frac") -> "_Frac":
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            return _Frac(self.num + o.num, self.den)
        return _Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "_Frac") -> "_Frac":
        return self + -o

    def __mul__(self, o: "_Frac") -> "_Frac":
        return _Frac(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "_Frac") -> "_Frac":
        return _Frac(self.num * o.den, self.den * o.num)

    def __pow__(self, k: int) -> "_Frac":
        num, den = (self.num, self.den) if k >= 0 else (self.den, self.num)
        return _Frac(num ** abs(k), den ** abs(k))


class _Parser:
    def __init__(self, text: str,
                 call: Optional[Callable[[str, RatFunc], RatFunc]] = None):
        self.tokens = _tokenize(text)
        self.k = 0
        self.call = call
        self.depth = 0

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
            return _Frac(MPoly.const(self.integer("a number")))
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
                arg = self._nested(pos)
                sym = self.call(val, RatFunc(arg.num, arg.den))
                return _Frac(sym.num, sym.den)
            if val == "x":
                if self.peek()[0] == "primes":
                    raise OdeSyntaxError(
                        "derivative markers attach to y only", self.peek()[2])
                return _Frac(MPoly.variable(val))
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
            return _Frac(MPoly.variable("y"))
        if self.call is not None:
            raise OdeSyntaxError("derivatives are not allowed here", p2)
        return _Frac(MPoly.variable(jet_name(order)))


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
    return RatFunc(value.num, value.den)


# -- the ODE type --------------------------------------------------------------


class OdeSpec:
    """y^(n) + f(x, y, ..., y^(n-1)) = 0 with rational f; equal when n and
    f are."""

    def __init__(self, n: int, f: RatFunc):
        if n < 2:
            raise OrderTooLow(f"order {n}; certification needs 2 or more")
        if jet_order(f) > n - 1:
            raise ValueError("f involves the highest derivative")
        self.n = n
        self.f = f

    def __eq__(self, other):
        if not isinstance(other, OdeSpec):
            return NotImplemented
        return self.n == other.n and self.f == other.f

    def __hash__(self) -> int:
        return hash((self.n, self.f))

    def __str__(self) -> str:
        return print_ode(self)


def parse_ode(text: str) -> OdeSpec:
    p = _Parser(text)
    lhs = p.expr()
    p.expect("=", "'='")
    diff = lhs - p.expr()
    p.expect_end("after the equation")
    rf = RatFunc(diff.num, diff.den)
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
