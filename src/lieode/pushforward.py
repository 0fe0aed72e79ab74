"""Oracle instance factory: push linear constant-coefficient ODEs through
point transformations.

Given a characteristic polynomial p (standing for the linear equation
u^(n) + a_{n-1} u^(n-1) + ... + a_0 u = 0) and a point transformation
u = psi(x, y), t = phi(x, y), the image equation in (x, y) is obtained by
the chain rule: along solution curves, u_{k+1} = D_x(u_k) / D_x(phi).
Substituting into the linear equation and solving for y^(n) (which always
appears linearly where the Jacobian is nonzero) yields an equation in the
accepted quasi-linear class, with a known ground truth: the image is
linearizable and, unless the source spectrum is an affine image of
{0, 1, ..., n-1} or a single repeated root, its certificate case is
constant-coefficients with recoverable class equal to the source's.

Transcendental building blocks (exp, log) are adjoined as fresh symbols
t1, t2, ..., so all arithmetic stays in exact rational functions: d/dx, d/dy
and D_x are each one ``RatFunc.derive`` call, a symbol's image given by the
chain rule.  Images are admitted into the corpus only when every adjoined
symbol cancels out of the final f.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import InputError, InternalInvariantError, NonRationalInstance
from .jets import dx_images, jet_name
from .parsing import OdeSpec, parse_expr
from .ratfunc import RatFunc
from .recovery import AffineClass, CharPoly, affine_class


class TranscendentalRegistry:
    """Adjoined exp/log symbols with their chain-rule derivatives."""

    def __init__(self):
        self._entries: List[Tuple[str, RatFunc]] = []  # (kind, argument)
        self._images: Dict[Tuple[str, str], RatFunc] = {}

    def adjoin(self, kind: str, arg: RatFunc) -> RatFunc:
        if kind == "log" and arg.is_zero():
            raise InputError("log of zero in transformation expression")
        for i, (k, a) in enumerate(self._entries):
            if k == kind and a == arg:
                return RatFunc.variable("t%d" % (i + 1))
        self._entries.append((kind, arg))
        return RatFunc.variable("t%d" % len(self._entries))

    def is_symbol(self, name: str) -> bool:
        return name[:1] == "t" and name[1:].isdigit()

    def derive(self, f: RatFunc, along: str) -> RatFunc:
        """D f for D = d/dx or d/dy (along = "x" or "y") on the plane, or the
        total derivative D_x on the jet space (along = "total"), with each
        adjoined symbol's image by the chain rule."""
        names = f.variables()
        if along == "total":
            images = {v: RatFunc(w) for v, w in dx_images(names).items()}
        else:
            images = {along: RatFunc.one()}
        for name in names:
            if self.is_symbol(name):
                images[name] = self._image(name, along)
        return f.derive(images)

    def _image(self, name: str, along: str) -> RatFunc:
        """D(symbol): t * D(arg) for exp, D(arg) / arg for log; cached."""
        key = (name, along)
        got = self._images.get(key)
        if got is None:
            kind, arg = self._entries[int(name[1:]) - 1]
            d = self.derive(arg, along)
            got = RatFunc.variable(name) * d if kind == "exp" else d / arg
            self._images[key] = got
        return got

    def total_dx(self, f: RatFunc) -> RatFunc:
        """Total x-derivative on the jet space."""
        return self.derive(f, "total")


def _has_symbols(f: RatFunc, reg: TranscendentalRegistry) -> bool:
    return any(reg.is_symbol(v) for v in f.variables())


@dataclasses.dataclass
class PointTransformation:
    """u = psi(x, y), t = phi(x, y), with symbolically nonzero Jacobian."""

    psi_text: str
    phi_text: str

    def __post_init__(self):
        self.registry = reg = TranscendentalRegistry()
        self.psi = parse_expr(self.psi_text, call=reg.adjoin)
        self.phi = parse_expr(self.phi_text, call=reg.adjoin)
        psi_x, psi_y, phi_x, phi_y = (
            reg.derive(f, v) for f in (self.psi, self.phi) for v in "xy")
        if (phi_x * psi_y - phi_y * psi_x).is_zero():
            raise InputError("transformation Jacobian vanishes identically")

    @property
    def name(self) -> str:
        return "u=%s, t=%s" % (self.psi_text, self.phi_text)


@dataclasses.dataclass
class OracleInstance:
    ode: OdeSpec
    source_poly: CharPoly
    transformation: PointTransformation
    expected_case: str  # "trivial" | "constant-coefficients"

    @property
    def label(self) -> str:
        return "%s under %s" % (self.source_poly, self.transformation.name)


def is_staircase_class(p: CharPoly) -> bool:
    """True iff p's roots are an affine image of {0, 1, ..., n-1} or all equal.

    Exactly these spectra (arithmetic progressions, including the degenerate
    all-equal case) make the linear equation point-equivalent to u^(n) = 0:
    t = e^(d x), u = y e^(-a x) maps the solution span of the AP spectrum
    {a, a+d, ...} onto polynomials of degree < n.  Degree-2 spectra are
    always such an image, matching the classical fact that every linear
    second-order equation is equivalent to the trivial one.
    """
    cls = affine_class(p)
    return cls.is_trivial or cls == _staircase_class(p.degree)


@lru_cache(maxsize=None)
def _staircase_class(n: int) -> AffineClass:
    """Affine class of the spectrum {0, 1, ..., n-1}."""
    return affine_class(CharPoly.from_roots([Fraction(i) for i in range(n)]))


def push_linear(p: CharPoly, T: PointTransformation) -> OracleInstance:
    """Image of the linear equation with characteristic polynomial p under T."""
    n = p.degree
    if n < 2:
        raise InputError("source equation must have order at least 2")
    reg = T.registry
    dphi = reg.total_dx(T.phi)
    if dphi.is_zero():
        raise InputError("transformation time variable is constant on solutions")
    u = [T.psi]
    for _ in range(n):
        u.append(reg.total_dx(u[-1]) / dphi)
    full = p.full_coeffs()
    eq = RatFunc.zero()
    for k, a in enumerate(full):
        if a:
            eq = eq + RatFunc.const(a) * u[k]
    top = jet_name(n)
    num = eq.num
    if num.degree_in(top) != 1:
        raise InternalInvariantError(
            "image equation is not linear in the highest derivative")
    low, lead = num.coeffs_in(top)
    if lead.is_zero():
        raise InternalInvariantError(
            "coefficient of the highest derivative vanished identically")
    f = RatFunc(low, lead)  # the reduction cancels shared transcendental factors
    if _has_symbols(f, reg):
        raise NonRationalInstance(
            "image of %s under %s is outside the rational class"
            % (p, T.name))
    ode = OdeSpec(n, f)
    case = "trivial" if is_staircase_class(p) else "constant-coefficients"
    return OracleInstance(ode, p, T, case)


def shipped_transformations() -> List[PointTransformation]:
    """The deterministic transformation list used for the oracle corpus."""
    return [
        PointTransformation("y", "x"),
        PointTransformation("exp(y)", "x"),
        PointTransformation("y", "exp(x)"),
        PointTransformation("1/y", "x"),
        PointTransformation("y/x", "1/x"),
    ]


def corpus_sources() -> List[CharPoly]:
    """Rational-root source polynomials of degrees 2 through 4."""
    root_sets = [
        [0, 0], [1, -1], [1, 1], [0, 3],
        [0, 0, 0], [-1, 0, 1], [0, 1, 1], [-1, 1, 2],
        [0, 0, 0, 0], [-1, 0, 0, 1], [-1, 0, 1, 2], [-1, 0, 1, 3],
    ]
    return [CharPoly.from_roots([Fraction(r) for r in roots])
            for roots in root_sets]


def default_corpus() -> List[OracleInstance]:
    """Every admissible (source, transformation) image, deterministic order."""
    out: List[OracleInstance] = []
    for T in shipped_transformations():
        for p in corpus_sources():
            try:
                out.append(push_linear(p, T))
            except NonRationalInstance:
                continue
    return out
