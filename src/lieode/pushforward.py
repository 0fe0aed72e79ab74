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

``push_linear`` takes D_x(phi) = A/B as one such call and runs the chain on
polynomials, with no gcd: psi = P/Q, M the lcm of the denominators of the
symbols' images, so that DD = M D_x maps polynomials to polynomials, and
u_k = N_k / E_k with E_k = Q^q A^a M^m and E_0 = Q (a constant base is left
out, and a constant A folds into B).  One step is

    N_{k+1} = B (DD(N_k) L - N_k sum_i e_i DD(b_i) L/b_i),

where b_i ranges over the bases Q, A, M, e_i is its exponent and L is the
product of the bases with e_i > 0 (the logarithmic-derivative form of the
quotient rule, Bronstein, *Symbolic Integration I*, ch. 3); then each of
those exponents rises by one, and A's and M's by one more.  The equation
sum_k a_k u_k is summed once over E_n, and ``RatFunc(low, lead)`` on its
coefficients of y^(n) is the only normalization: it takes the one gcd that
can be nontrivial (Henrici's rule, Knuth, TAOCP vol. 2, 4.5.1) and cancels
the transcendental factors with the rest.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import InputError, InternalInvariantError, NonRationalInstance
from .jets import dx_images, jet_name
from .parsing import OdeSpec, parse_expr
from .polys import ONE, ZERO, MPoly
from .ratfunc import RatFunc, polynomial_derivation
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

    def closed_dx_images(self, fs) -> Dict[str, RatFunc]:
        """D_x of every symbol in the fs and, in turn, of every symbol those
        images involve.  A symbol's argument holds only earlier symbols, so
        the closure ends."""
        out: Dict[str, RatFunc] = {}
        todo = [v for f in fs for v in f.variables() if self.is_symbol(v)]
        while todo:
            name = todo.pop()
            if name not in out:
                out[name] = w = self._image(name, "total")
                todo.extend(v for v in w.variables() if self.is_symbol(v))
        return out


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


def _product(factors) -> MPoly:
    out = ONE
    for c in factors:
        out = c if out == ONE else out * c
    return out


def push_linear(p: CharPoly, T: PointTransformation) -> OracleInstance:
    """Image of the linear equation with characteristic polynomial p under T,
    by the polynomial chain of the module docstring."""
    n = p.degree
    if n < 2:
        raise InputError("source equation must have order at least 2")
    reg = T.registry
    m, images = polynomial_derivation(reg.closed_dx_images((T.psi, T.phi)))
    dphi = reg.total_dx(T.phi)
    if dphi.is_zero():
        raise InputError("transformation time variable is constant on solutions")
    jets = dx_images(["x"] + [jet_name(k) for k in range(n)])
    images.update({v: m * w for v, w in jets.items()})
    a, b = dphi.num, dphi.den
    if a.is_const():
        # 1/A folds into B
        a, b = ONE, b.scaled(a.den, a.leading_numerator())
    # the bases of E_k, each with its exponent in E_0 and whether
    # E_{k+1} / E_k takes it once more than L does
    tracked = [(c, e, more) for c, e, more in
               ((T.psi.den, 1, False), (a, 0, True), (m, 0, True))
               if not c.is_const()]
    bases = [c for c, _, _ in tracked]
    exps = [e for _, e, _ in tracked]
    more = [x for _, _, x in tracked]
    d_bases = [c.derive(images) for c in bases]
    num = [T.psi.num]
    steps: List[MPoly] = []     # E_{k+1} / E_k
    for _ in range(n):
        live = [i for i, e in enumerate(exps) if e]
        prod_live = _product(bases[i] for i in live)
        log_d = ZERO
        for i in live:
            others = _product(bases[j] for j in live if j != i)
            log_d = log_d.add_scaled(d_bases[i] * others, exps[i])
        last = num[-1]
        nxt = last.derive(images) * prod_live - last * log_d
        num.append(nxt if b == ONE else b * nxt)
        exps = [e + (e > 0) + x for e, x in zip(exps, more)]
        steps.append(_product(
            [prod_live] + [c for c, x in zip(bases, more) if x]))
    eq = ZERO
    cofactor = ONE      # E_n / E_k
    full = p.full_coeffs()
    for k in reversed(range(n + 1)):
        if full[k]:
            eq = eq.add_scaled(num[k] * cofactor, full[k].numerator,
                               full[k].denominator)
        if k:
            cofactor = cofactor * steps[k - 1]
    top = jet_name(n)
    if eq.degree_in(top) != 1:
        raise InternalInvariantError(
            "image equation is not linear in the highest derivative")
    low, lead = eq.coeffs_in(top)
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
