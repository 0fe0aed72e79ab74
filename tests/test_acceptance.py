"""Acceptance gate: ten end-to-end checks, one verdict line each.

Run with -s to see every verdict line; under plain -v each criterion is one
test whose PASSED/FAILED status is the verdict.  Every check is exact
rational arithmetic — there are no tolerances anywhere.
"""
import contextlib
import random
from fractions import Fraction

from lieode.determining import determining_system
from lieode.involutive import complete
from lieode.liealgebra import derived_algebra
from lieode.linalg import charpoly as matrix_charpoly
from lieode.pipeline import analyze
from lieode.recovery import (CharPoly, adjoint_on_derived, affine_class,
                             root_affine_image)

from conftest import (affine_equivalent, audit_involutive, inverse, lie_table,
                      mat_mul, mirror)

F = Fraction


@contextlib.contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException as exc:
        reason = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print("CRITERION %2d: FAIL — %s — %s" % (num, label, reason[:120]))
        raise
    print("CRITERION %2d: PASS — %s" % (num, label))


# -- 1: maximal case ------------------------------------------------------------------


def test_criterion_01_maximal_second_order(reference_reports):
    with verdict(1, "y'' = 0 has the full eight-dimensional algebra"):
        r = reference_reports["max2"]
        assert r.m == 8
        assert r.certificate.linearizable
        assert r.certificate.case == "trivial"


# -- 2: trivial-class recovery --------------------------------------------------------


def test_criterion_02_trivial_class_image(reference_reports):
    with verdict(2, "exp-image of u'' = 0 recovers the trivial class"):
        r = reference_reports["exp_image2"]
        assert r.m == 8
        assert r.recovery is not None
        assert r.recovery.representative_ode == "u'' = 0"


# -- 3: constant-coefficient recovery -------------------------------------------------


def test_criterion_03_constant_class_image(reference_reports):
    # Source u''' - u'' - 2*u' = 0: characteristic polynomial z(z+1)(z-2),
    # roots {-1, 0, 2}.  The roots are neither all equal nor an arithmetic
    # progression, so the source is not point-equivalent to u''' = 0 and,
    # by Mahomed-Leach (n >= 3: m in {n+1, n+2, n+4}), its algebra has
    # m = n + 2 = 5 with an abelian derived algebra of dimension n = 3.
    # The exp-image must recover the affine class of that source.
    source = CharPoly.from_roots([F(-1), F(0), F(2)])
    with verdict(3, "exp-image of u''' - u'' - 2*u' = 0 recovers the class "
                    "of z^3 - z^2 - 2z"):
        # theory guard: m = 5 rests on these two facts about the spectrum
        assert not affine_equivalent(source,
                                     CharPoly.from_roots([F(-1), F(0), F(1)]))
        assert not affine_class(source).is_trivial
        r = reference_reports["cc_image3"]
        m, dd = r.m, r.certificate.derived_dimension
        assert m == 5, "expected m = 5, engine reports m = %d" % m
        assert dd == 3, "expected derived dimension 3, got %d" % dd
        assert r.certificate.derived_abelian
        assert r.recovery is not None
        assert r.recovery.affine == affine_class(source)


def test_criterion_03_actual_behavior(reference_reports):
    # What the engine provably returns for the exp-image of u''' - u' = 0.
    # The spectrum {-1, 0, 1} is an arithmetic progression, so the equation
    # is point-equivalent to u''' = 0 itself: with y(x) solving
    # y''' - y' = 0, the map u = y e^{x}, t = e^{x} sends the solution span
    # {1, e^x, e^-x} onto {t, t^2, 1}, the polynomials of degree <= 2 in t,
    # which solve u_ttt = 0.  That gives the larger algebra m = 7 and the
    # trivial class.  Every affine image of {-1, 0, 1} is again an
    # arithmetic progression, so no input of this class is
    # constant-coefficient.
    r = reference_reports["exp_image3"]
    assert r.m == 7
    assert r.certificate.case == "trivial"
    assert r.recovery is not None
    assert r.recovery.representative_ode == "u''' = 0"
    assert r.recovery.affine.is_trivial


# -- 4: negative control --------------------------------------------------------------


def test_criterion_04_negative_control(reference_reports):
    with verdict(4, "y'' = y^2 has m = 2 and is not linearizable"):
        r = reference_reports["negative2"]
        assert r.m == 2
        assert not r.certificate.linearizable
        assert r.certificate.case == "none"


# -- 5: adjoint action matrix ---------------------------------------------------------


def _spectrum_2_2_5_table():
    m = 5
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]

    def setbr(i, j, vec):
        C[i][j] = [F(v) for v in vec]
        C[j][i] = [-F(v) for v in vec]

    setbr(3, 0, [2, 0, 0, 0, 0])
    setbr(3, 1, [1, 2, 0, 0, 0])
    setbr(3, 2, [0, 0, 5, 0, 0])
    setbr(4, 0, [-1, 0, 0, 0, 0])
    setbr(4, 1, [0, -1, 0, 0, 0])
    setbr(4, 2, [0, 0, -1, 0, 0])
    table = lie_table(C)
    table.validate()
    return table


def _permutations3():
    out = []
    for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
              (2, 1, 0)]:
        P = [[F(1) if p[i] == j else F(0) for j in range(3)]
             for i in range(3)]
        out.append(P)
    return out


def test_criterion_05_adjoint_matrix_and_conjugation():
    with verdict(5, "eigenvalues 2, 2, 5: adjoint matrix and its invariance"):
        L = _spectrum_2_2_5_table()
        D = derived_algebra(L)
        A = adjoint_on_derived(L, D, 3)      # e4, the x-translation
        reference = [[F(2), F(0), F(0)], [F(1), F(2), F(0)],
                     [F(0), F(0), F(5)]]
        assert any(mat_mul(inverse(P), mat_mul(A, P)) == reference
                   for P in _permutations3())
        cp = CharPoly(tuple(matrix_charpoly(A)))
        assert cp == CharPoly.from_roots([F(2), F(2), F(5)])
        rng = random.Random(20260819)
        done = 0
        while done < 20:
            T = [[F(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
            try:
                Ti = inverse(T)
            except ValueError:
                continue
            assert matrix_charpoly(mat_mul(Ti, mat_mul(A, T))) == \
                matrix_charpoly(A)
            done += 1


# -- 6: affine equivalence property suite ---------------------------------------------


def test_criterion_06_affine_property_suite():
    with verdict(6, "100 random affine images stay in class; z^3 - z vs z^3"):
        rng = random.Random(1729)
        for _ in range(100):
            deg = rng.randint(2, 5)
            p = CharPoly(tuple(F(rng.randint(-60, 60), rng.randint(1, 8))
                               for _ in range(deg)))
            k = F(0)
            while k == 0:
                k = F(rng.randint(-12, 12), rng.randint(1, 6))
            b = F(rng.randint(-12, 12), rng.randint(1, 6))
            assert affine_equivalent(p, root_affine_image(p, k, b))
        z3_minus_z = CharPoly((F(0), F(-1), F(0)))
        z3 = CharPoly((F(0), F(0), F(0)))
        assert not affine_equivalent(z3_minus_z, z3)


# -- 7: structure-constant invariants and stability -----------------------------------


def test_criterion_07_algebra_invariants(reference_reports):
    with verdict(7, "brackets exact; stable under N+1 and a moved basepoint"):
        for key, r in reference_reports.items():
            r.algebra.validate()    # antisymmetry + Jacobi, exact
            fingerprint = (r.m, r.certificate.derived_dimension,
                           r.certificate.derived_abelian)
            src = r.ode
            text = _render_input(key)
            again = analyze(text, max_order=r.truncation_order + 1)
            assert (again.m, again.certificate.derived_dimension,
                    again.certificate.derived_abelian) == fingerprint, key
            moved = analyze(text, point=(r.basis_point[0] + 1,
                                         r.basis_point[1] + 1))
            assert (moved.m, moved.certificate.derived_dimension,
                    moved.certificate.derived_abelian) == fingerprint, key
            assert src.n == again.ode.n == moved.ode.n


def _render_input(key):
    from conftest import REFERENCE_INPUTS
    return REFERENCE_INPUTS[key]


# -- 8: dimension bounds over the corpus ----------------------------------------------


def test_criterion_08_dimension_bounds(corpus_reports):
    with verdict(8, "m <= 8 (n=2) and m <= n+4 (n>=3), equality iff trivial"):
        assert len(corpus_reports) == 51
        for inst, report in corpus_reports:
            n = report.ode.n
            bound = 8 if n == 2 else n + 4
            assert report.m <= bound, inst.label
            trivial = report.certificate.case == "trivial"
            assert (report.m == bound) == trivial, inst.label


# -- 9: end-to-end oracle soundness ---------------------------------------------------


def test_criterion_09_oracle_soundness(corpus_reports):
    with verdict(9, "every constant-coefficient image recovers its source class"):
        checked = 0
        for inst, report in corpus_reports:
            if report.certificate.case != "constant-coefficients":
                continue
            assert report.recovery is not None, inst.label
            assert report.recovery.affine == affine_class(inst.source_poly), \
                inst.label
            checked += 1
        assert checked > 0


# -- 10: involutivity audit -----------------------------------------------------------


def test_criterion_10_involutivity_audit(reference_reports):
    # the second ranking is int order on the mirrored input, (x, y) and
    # (xi, eta) swapped, whose symmetry algebra is the input's
    with verdict(10, "integrability conditions vanish; the mirrored input "
                     "agrees on m"):
        for key, r in reference_reports.items():
            detsys = determining_system(r.ode)
            assert audit_involutive(r.involutive, detsys)
            other = complete(mirror(detsys))
            assert audit_involutive(other, mirror(detsys))
            assert other.dimension == r.m, key
