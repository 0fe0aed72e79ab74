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
t1, t2, ..., so all arithmetic stays in exact rational functions.  D_x, one
``RatFunc.derive`` call with each symbol's image by the chain rule, is the
only derivative; on the plane D_x f = f_x + f_y y' yields the Jacobian.
Images enter the corpus only when every adjoined symbol cancels out of f.

``push_linear`` takes D_x(phi) = A/B from the transformation and runs the
chain on polynomials, with no gcd: psi = P/Q, M the lcm of the denominators
of the symbols' images, so that DD = M D_x maps polynomials to polynomials,
and u_k = N_k / E_k.  With L DD(E_k)/E_k = S for a polynomial S, the
quotient rule in its logarithmic-derivative form (Bronstein, *Symbolic
Integration I*, ch. 3) gives the step

    N_{k+1} = B (DD(N_k) L - N_k S),    E_{k+1} = A M L E_k.

E_0 = Q, so step 0 takes L = Q and S = DD(Q), and E_1 = Q^2 AM.  For k >= 1,
E_k = Q^(k+1) (AM)^(2k-1): then

    DD(E_k)/E_k = (k+1) DD(Q)/Q + (2k-1) (DD(A)/A + DD(M)/M),

so step k takes L = QAM and S = (k+1) DD(Q) AM + (2k-1) (DD(A) M + DD(M) A) Q,
and E_{k+1} = QAM AM E_k keeps the form.  A constant Q or M is 1 (the
denominators are monic), and a constant A folds into B.  The chain runs on
one layout (``polys.FixedLayout``), into which P, Q, A, B, M and the
symbols' images are lifted once.  The equation sum_k a_k u_k, over E_n, is
summed by Horner's rule as the N_k come: eq <- eq E_{k+1}/E_k + a_{k+1}
N_{k+1}, with E_1/E_0 = QAM and E_{k+1}/E_k = QAM AM for k >= 1.
``RatFunc(low, lead)`` on its coefficients of y^(n) is the only
normalization: it takes the one gcd that can be nontrivial (Henrici's rule,
Knuth, TAOCP vol. 2, 4.5.1) and cancels the transcendental factors with the
rest.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import InputError, InternalInvariantError, NonRationalInstance
from .jets import dx_images, jet_name
from .parsing import OdeSpec, parse_expr
from .polys import ONE, ZERO, FixedLayout, MPoly
from .ratfunc import RatFunc, polynomial_derivation
from .recovery import CharPoly, affine_numerators


class TranscendentalRegistry:
    """Adjoined exp/log symbols t1, t2, ... with their D_x images by the
    chain rule: t D_x(arg) for exp, D_x(arg)/arg for log.

    ``adjoin`` takes a symbol's image when it adds the symbol.  The argument
    is parsed before the call, so it holds only earlier symbols, whose images
    ``images`` already has; no image waits for a later symbol."""

    def __init__(self):
        self._symbols: Dict[Tuple[str, RatFunc], RatFunc] = {}
        self.images: Dict[str, RatFunc] = {}

    def adjoin(self, kind: str, arg: RatFunc) -> RatFunc:
        if kind == "log" and arg.is_zero():
            raise InputError("log of zero in transformation expression")
        t = self._symbols.get((kind, arg))
        if t is None:
            name = "t%d" % (len(self.images) + 1)
            t = self._symbols[kind, arg] = RatFunc.variable(name)
            d = self.total_dx(arg)
            self.images[name] = t * d if kind == "exp" else d / arg
        return t

    def total_dx(self, f: RatFunc) -> RatFunc:
        """Total x-derivative on the jet space, with each adjoined symbol's
        image by the chain rule."""
        names = f.variables()
        images = {v: RatFunc(w) for v, w in dx_images(names).items()}
        images.update((v, self.images[v]) for v in names if v in self.images)
        return f.derive(images)


def _partials(df: RatFunc) -> List[MPoly]:
    """[c0, c1] with D_x f = (c0 + c1 y') / den for f on the plane: den is
    free of y', so c0 and c1 are f_x and f_y over one nonzero den."""
    parts = df.num.coeffs_in(jet_name(1))
    if len(parts) > 2:
        raise InternalInvariantError("total derivative not linear in y'")
    return parts + [ZERO] * (2 - len(parts))


class PointTransformation:
    """u = psi(x, y), t = phi(x, y), with symbolically nonzero Jacobian."""

    def __init__(self, psi_text: str, phi_text: str):
        self.psi_text = psi_text
        self.phi_text = phi_text
        self.registry = reg = TranscendentalRegistry()
        self.psi = parse_expr(psi_text, call=reg.adjoin)
        self.phi = parse_expr(phi_text, call=reg.adjoin)
        self.dphi = reg.total_dx(self.phi)     # kept for push_linear
        (a0, a1), (b0, b1) = (_partials(d)
                              for d in (self.dphi, reg.total_dx(self.psi)))
        if not a0 * b1 - a1 * b0:
            raise InputError("transformation Jacobian vanishes identically")

    @property
    def name(self) -> str:
        return "u=%s, t=%s" % (self.psi_text, self.phi_text)


class OracleInstance:
    def __init__(self, ode: OdeSpec, source_poly: CharPoly,
                 transformation: PointTransformation, expected_case: str):
        self.ode = ode
        self.source_poly = source_poly
        self.transformation = transformation
        self.expected_case = expected_case  # "trivial" | "constant-coefficients"

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

    Decided on integers, as the equality of affine classes (``recovery``)
    is: with C_j/s the centered coefficient of z^(n-j) of p and S_j/u the
    staircase's (its odd S_j vanish, S_2 does not), p's roots are
    k lambda + b over the staircase's, k possibly non-real, iff
    C_j/s = k^j S_j/u for every j >= 2.  So the test is: every C_j is 0, or
    C_2 != 0, every odd C_j is 0 and C_j u (s S_2)^(j/2) = s S_j (C_2 u)^(j/2)
    for every even j.
    """
    n = p.degree
    if n < 3:
        return True     # no j >= 3 to test
    c, s = _centered_numerators(p)
    if not any(c[2:]):
        return True
    stair, u = _staircase_numerators(n)
    c2, s2 = c[2] * u, s * stair[2]
    return bool(c2) and all(
        c[j] * u * s2 ** (j // 2) == s * stair[j] * c2 ** (j // 2)
        if j % 2 == 0 else not c[j] for j in range(3, n + 1))


def _centered_numerators(p: CharPoly) -> Tuple[List[int], int]:
    """(c, s): c[j] / s is the coefficient of z^(n-j) of p centered."""
    n = p.degree
    c, s = affine_numerators(p, 1, p.coeffs[n - 1] / n)
    return c[::-1], s


@lru_cache(maxsize=None)
def _staircase_numerators(n: int) -> Tuple[List[int], int]:
    """The centered numerators of the spectrum {0, 1, ..., n-1}."""
    return _centered_numerators(CharPoly.from_roots(range(n)))


def push_linear(p: CharPoly, T: PointTransformation) -> OracleInstance:
    """Image of the linear equation with characteristic polynomial p under T,
    by the polynomial chain of the module docstring."""
    n = p.degree
    if n < 2:
        raise InputError("source equation must have order at least 2")
    reg = T.registry
    m, images = polynomial_derivation(reg.images)
    jets = dx_images(["x"] + [jet_name(k) for k in range(n)])
    images.update({v: m * w for v, w in jets.items()})
    a, b = T.dphi.num, T.dphi.den
    if a.is_const():
        # 1/A folds into B
        a, b = ONE, b.scaled(a.den, a.leading_numerator())
    ring = FixedLayout(images, T.psi.num, T.psi.den, a, b, m)
    P, Q, A, B, M = ring.lifted
    mul, add, dd = ring.mul, ring.add_scaled, ring.derive
    dq = dd(Q)
    am = mul(A, M)
    qam = mul(Q, am)
    dq_am = mul(dq, am)
    dam_q = mul(add(mul(dd(A), M), mul(dd(M), A), 1), Q)
    # step 0 takes L = Q and S = DD(Q), step k >= 1 L = QAM and
    # S = (k+1) DD(Q) AM + (2k-1) (DD(A) M + DD(M) A) Q: s starts at this
    # formula's k = 0 and grows by ds from k to k + 1
    s, ds = add(dq_am, dam_q, -1), add(dq_am, dam_q, 2)
    nk = mul(B, add(mul(dd(P), Q), mul(P, dq), -1))
    full = p.full_coeffs()
    eq = add(ring.zero, P, full[0].numerator, full[0].denominator)
    ratio = qam                 # E_{k+1} / E_k: QAM for k = 0, then QAM AM
    later = mul(qam, am)
    for k in range(1, n + 1):
        # Horner's rule: eq = sum_{j<k} a_j N_j E_{k-1}/E_j becomes
        # sum_{j<=k} a_j N_j E_k/E_j
        eq = add(mul(eq, ratio), nk, full[k].numerator, full[k].denominator)
        if k < n:
            s = add(s, ds, 1)
            nk = mul(B, add(mul(dd(nk), qam), mul(nk, s), -1))
            ratio = later
    eq = ring.build(eq)
    top = jet_name(n)
    if eq.degree_in(top) != 1:
        raise InternalInvariantError(
            "image equation is not linear in the highest derivative")
    low, lead = eq.coeffs_in(top)
    f = RatFunc(low, lead)  # the reduction cancels shared transcendental factors
    if any(v in reg.images for v in f.variables()):
        raise NonRationalInstance(
            "image of %s under %s is outside the rational class"
            % (p, T.name))
    ode = OdeSpec(n, f)
    case = "trivial" if is_staircase_class(p) else "constant-coefficients"
    return OracleInstance(ode, p, T, case)


# (psi, phi) of each transformation of the oracle corpus, in corpus order
SHIPPED_PAIRS = (("y", "x"), ("exp(y)", "x"), ("y", "exp(x)"), ("1/y", "x"),
                 ("y/x", "1/x"))


def shipped_transformations() -> List[PointTransformation]:
    """The deterministic transformation list used for the oracle corpus."""
    return [PointTransformation(psi, phi) for psi, phi in SHIPPED_PAIRS]


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
