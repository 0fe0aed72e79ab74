"""Series bases, structure constants, derived algebras, certificates."""
import dataclasses
import functools
import itertools
import json
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lieode.liealgebra
from lieode import analyze
from lieode.determining import determining_system, fields, rank
from lieode.errors import InputError, InternalInvariantError, SingularPoint
from lieode.involutive import complete
from lieode.liealgebra import (CASE_CONSTANT, CASE_NONCONSTANT, CASE_NONE,
                               CASE_TRIVIAL, Certificate, Subalgebra,
                               assert_dimension_bounds, certify,
                               derived_algebra, expansion_points,
                               normal_form_table, series_basis,
                               structure_constants)
from lieode.parsing import parse_ode
from lieode.polys import MPoly
from lieode.ratfunc import RatFunc

from conftest import (BENCH_DATA, ETA, MIRROR_RANKING, XI, REFERENCE_INPUTS,
                      Slot, basis_values, bench_inputs, bench_odes,
                      bench_ranking_cases, fraction_bracket, fraction_table,
                      int_keyed, keyed_columns, lie_table, mirror, mpolys,
                      normal_form, plain_eval, pointwise_rows,
                      ranking_case_system, rationals, reference_slot_index,
                      row_space_basis, satisfies, series_faults,
                      solution_data_from_components,
                      sparse_structure_constants, to_int, to_slot,
                      tresse_holds)

F = Fraction
UNIT = MPoly.const(1)   # equation coefficient
ONE = RatFunc.one()
ZERO = RatFunc.zero()
X = RatFunc.variable("x")
Y = RatFunc.variable("y")


def run(text):
    inv = complete(determining_system(parse_ode(text)))
    basis = series_basis(inv)
    table = structure_constants(basis)
    return inv, basis, table


# -- series solutions ---------------------------------------------------------------


def test_series_basis_is_delta_initial_data():
    inv, basis, _ = run("y'' = 0")
    for i, data in enumerate(basis_values(basis)):
        for j, p in enumerate(basis.parametric):
            assert data[to_slot(p)] == (1 if i == j else 0)
    # each column holds nonzero values only, by position, one order past N
    # so that brackets are known through order N
    size = (basis.N + 2) * (basis.N + 3)
    for col in basis.cols:
        positions = [k for k, _ in col]
        assert positions == sorted(set(positions)) and positions[-1] < size
        assert all(v for _, v in col)


def test_series_basis_truncation_floor():
    inv = complete(determining_system(parse_ode("y'' = 0")))
    with pytest.raises(InputError):
        series_basis(inv, N=inv.max_parametric_order() + 1)


def test_singular_expansion_point_is_reported():
    # a completed lead coefficient of y'' + y'/x vanishes on x = 0, and on
    # y = 0 for the mirrored system, so no series basis is taken there
    # [DERIVED]
    ode = parse_ode("y'' + y'/x = 0")
    for mirrored, x, y in ((False, 0, 0), (False, 0, 5), (True, 5, 0)):
        inv = complete(ranking_case_system(ode, mirrored))
        assert not all(plain_eval(e.terms[e.lead], {"x": x, "y": y})
                       for e in inv.eqs)
        with pytest.raises(SingularPoint):
            series_basis(inv, point=(F(x), F(y)))


def test_automatic_point_avoids_singularities():
    inv = complete(determining_system(parse_ode("y'' + y'/x = 0")))
    basis = series_basis(inv)
    assert basis.point[0] != 0    # x = 0 meets the coefficient pole


# Rational functions whose denominators have repeated factors, in x, in y
# and in both; their numerators and denominators are the polynomials of the
# test below.  Each is built inside the test, so an arithmetic fault fails
# that test instead of stopping collection.
TAYLOR_CASES = {
    "both": lambda: (X - Y) / (X + Y) ** 2,
    "both-cubed": lambda: (X * Y + 1) / (X + 2 * Y) ** 3,
    "separate": lambda: (Y ** 3 + X) / ((X * X + 1) ** 2 * (Y + 2) ** 3),
    "product": lambda: ONE / (X * Y - 1) ** 2,
    "x-only": lambda: X / (X - 3) ** 3,
    "y-only": lambda: (Y - 1) / (Y * Y + 1) ** 2,
    "polynomial": lambda: X ** 3 * Y * Y - 5 * X * Y + F(7, 3),
    "constant": lambda: RatFunc.const(F(5, 7)),
}


@pytest.mark.parametrize("point", [(F(1, 2), F(1, 3)), (F(-2), F(-3, 5))],
                         ids=["candidate", "negative"])
@pytest.mark.parametrize("name", list(TAYLOR_CASES))
def test_taylor_coefficients_match_iterated_derivatives(name, point):
    # i! j! T[i, j] / scale is d^i/dx^i d^j/dy^j p at the point, as repeated
    # symbolic differentiation and evaluation give it, for the shift of
    # each polynomial p; zeros are left out, and the shift stops at order K
    # [DERIVED]
    c, K = TAYLOR_CASES[name](), 6
    for p in (c.num, c.den):
        T, scale = lieode.liealgebra._shifted(p, point, K)
        ref = solution_data_from_components(RatFunc(p), ZERO, point, K)
        assert scale > 0
        for total in range(K + 1):
            for i in range(total + 1):
                j = total - i
                assert (F(T.get((i, j), 0) * factorial(i) * factorial(j),
                          scale) == ref[Slot(XI, i, j)]), (p, i, j)
        assert all(T.values()) and max(i + j for i, j in T) <= K


@given(mpolys(max_terms=5, max_exp=4),
       st.one_of(st.just((F(0), F(0))), st.tuples(rationals(), rationals())),
       st.integers(0, 6))
def test_shift_matches_the_reference(p, point, K):
    # the shift holds the coefficients of p(x0 + x, y0 + y), expanded by
    # MPoly arithmetic, of total degree <= K, zeros left out  [DERIVED]
    def xy(names, e):
        d = dict(zip(names, e))
        return d.get("x", 0), d.get("y", 0)

    T, scale = lieode.liealgebra._shifted(p, point, K)
    q = MPoly.zero()
    for e, c in p.terms.items():
        i, j = xy(p.vars, e)
        q = q + ((MPoly.variable("x") + point[0]) ** i
                 * (MPoly.variable("y") + point[1]) ** j * c)
    assert scale > 0 and {k: F(n, scale) for k, n in T.items()} == {
        xy(q.vars, e): c for e, c in q.terms.items() if sum(e) <= K}


# Rational-coefficient inputs checked at an explicit fractional point, with
# coefficient denominators (x+y)^2 and (x^2+1)^2 there.
EXPLICIT_POINTS = {
    "y''' + (-6*y*y'*y'' - 6*x*y'*y'' + 6*(y')^3 - 6*y*y'' - 6*x*y'' "
    "+ 18*(y')^2 + 18*y' + 6)/(y^2 + 2*x*y + x^2) = 0": (F(1, 2), F(-1, 3)),
    "y'' + (-x^4*y - 4*x^3*y' + 4*x^2*y - 4*x*y' - 3*y)/(x^4 + 2*x^2 + 1)"
    " = 0": (F(-3, 2), F(2, 5)),
}


@pytest.mark.parametrize("text", list(REFERENCE_INPUTS.values()) + [
    "y'' - y/x^4 = 0",
    "y'' + (-3*x^2*(y')^3 - 6*x*y*(y')^2 - 3*y^2*y' - 2*(y')^2)/y = 0",
] + list(EXPLICIT_POINTS))
def test_table_matches_evaluated_symbolic_normal_forms(text):
    # forward substitution at the point agrees with the symbolic normal form
    # of every slot, evaluated afterwards.  The two inputs after the
    # reference ones have their automatic point at (1, 1), off the singular
    # line; the last two are taken at an explicit fractional point  [DERIVED]
    inv = complete(determining_system(parse_ode(text)))
    point = EXPLICIT_POINTS.get(text) or series_basis(inv).point
    table = normal_form_table(inv, inv.max_parametric_order() + 3, point)
    env = {"x": point[0], "y": point[1]}
    for s, row in fraction_table(table).items():
        ref = {q: plain_eval(c, env)
               for q, c in normal_form(inv, {s: UNIT}).items()}
        assert row == {q: v for q, v in ref.items() if v}, s.label()


@pytest.mark.parametrize("text,point", [
    ("y'' + y'/x = 0", (F(0), F(0))),
    ("y'' + (-2*x*y' - 2*y' + 2*y)/(x^2 + 2*x + 1) = 0", (F(-1), F(1, 2))),
], ids=["pole-x", "pole-x+1"])
def test_table_at_a_singular_point_raises(text, point):
    # a coefficient denominator that vanishes at the point is reported as
    # such, never as a ZeroDivisionError from solving for a lead  [DERIVED]
    inv = complete(determining_system(parse_ode(text)))
    env = {"x": point[0], "y": point[1]}
    assert not all(plain_eval(e.terms[e.lead], env) for e in inv.eqs)
    with pytest.raises(SingularPoint):
        normal_form_table(inv, inv.max_parametric_order() + 2, point)


def test_singular_point_raises_before_any_tail_work(monkeypatch):
    # every lead coefficient is shifted, in order, before any tail
    # coefficient is; at a singular point nothing else is done, and at a
    # regular point each coefficient is shifted exactly once  [DERIVED]
    inv = complete(determining_system(parse_ode("y'' + y'/x = 0")))
    shifted = []
    real_shifted = lieode.liealgebra._shifted

    def count_shift(p, *args):
        shifted.append(p)
        return real_shifted(p, *args)

    monkeypatch.setattr(lieode.liealgebra, "_shifted", count_shift)
    with pytest.raises(SingularPoint):
        normal_form_table(inv, inv.max_parametric_order() + 2, (F(0), F(0)))
    leads = [e.terms[e.lead] for e in inv.eqs]
    assert 0 < len(shifted) <= len(leads)
    assert shifted == leads[:len(shifted)]
    shifted.clear()
    normal_form_table(inv, inv.max_parametric_order() + 2, (F(1), F(1)))
    tails = [c for e in inv.eqs for t, c in e.terms.items() if t != e.lead]
    assert shifted[:len(leads)] == leads
    assert shifted[len(leads):] == tails


def _first_regular_candidate(inv):
    """First candidate point at which no completed lead coefficient
    vanishes, by the plain evaluator."""
    return next(p for p in expansion_points()
                if all(plain_eval(eq[lead], {"x": p[0], "y": p[1]})
                       for eq, lead in zip(inv.equations, inv.leads)))


def test_zero_algebra_report_names_the_series_point_and_order():
    # Painleve II has no point symmetry (m = 0); the report still carries
    # the point and order the series stage used, so a rerun at one order
    # more is valid
    text = "y'' = 2*y^3 + x*y"
    r = analyze(text, point=(F(1), F(2)), max_order=5)
    assert r.m == 0
    assert (r.basis_point, r.truncation_order) == ((1, 2), 5)
    r = analyze(text)
    assert r.m == 0
    assert r.basis_point == _first_regular_candidate(r.involutive)
    assert r.truncation_order == r.involutive.max_parametric_order() + 2
    assert analyze(text, max_order=r.truncation_order + 1).m == 0


def test_automatic_point_leaves_a_line_of_candidates():
    # xi = c, eta = 0 with c = (y - x - 1) x (x - 1) (x - 2) (2x - 1): c
    # vanishes at the five fixed candidates and on the line y = x + 1, so
    # the search must leave that line; it stops at (3, 0), where c != 0
    # [DERIVED]
    x, y = MPoly.variable("x"), MPoly.variable("y")
    c = (y - x - 1) * x * (x - 1) * (x - 2) * (2 * x - 1)
    inv = complete(list(map(int_keyed, [
        {Slot(XI, 1, 0): c, Slot(XI, 0, 0): -c.derivative("x")},
        {Slot(XI, 0, 1): c, Slot(XI, 0, 0): -c.derivative("y")},
        {Slot(ETA, 0, 0): UNIT}])))
    assert inv.dimension == 1
    basis = series_basis(inv)
    assert basis.point == (3, 0)
    # the basis element is c / c(3, 0)
    [data] = basis_values(basis)
    at = {"x": F(3), "y": F(0)}
    for var, slot in (("x", Slot(XI, 1, 0)), ("y", Slot(XI, 0, 1))):
        assert data[slot] == (plain_eval(c.derivative(var), at)
                              / plain_eval(c, at))


def _scale_equation_with_tail(inv, factor):
    """Multiply, in place, the first completed equation that has a tail."""
    e = next(e for e in inv.eqs if len(e.terms) > 1)
    for s in e.terms:
        e.terms[s] = e.terms[s] * factor
    e.invalidate()


@pytest.mark.parametrize("factor", [MPoly.const(2), MPoly.variable("x") + 1],
                         ids=["doubled", "times-x+1"])
def test_table_ignores_the_scale_of_an_equation(factor):
    # an equation is used solved for its lead, so a nonzero multiple of it
    # gives the same table  [DERIVED]
    inv = complete(determining_system(parse_ode("y'' + y'/x = 0")))
    N, point = inv.max_parametric_order() + 2, (F(1), F(1))
    ref = normal_form_table(inv, N, point)
    _scale_equation_with_tail(inv, factor)
    assert normal_form_table(inv, N, point) == ref


def test_table_where_a_lead_coefficient_vanishes_raises():
    # times x, an equation's lead coefficient vanishes on x = 0, where it
    # cannot be solved for its lead  [DERIVED]
    inv = complete(determining_system(parse_ode("y'' = 0")))
    _scale_equation_with_tail(inv, MPoly.variable("x"))
    e = next(e for e in inv.eqs if len(e.terms) > 1)
    assert plain_eval(e.terms[e.lead], {"x": F(0), "y": F(0)}) == 0
    with pytest.raises(SingularPoint):
        normal_form_table(inv, inv.max_parametric_order() + 2, (F(0), F(0)))


def test_table_below_every_lead_uses_no_equation():
    # below the lowest lead every slot is parametric, whatever the lead
    # coefficients are at the point  [DERIVED]
    inv = complete(determining_system(parse_ode("y'' = 0")))
    _scale_equation_with_tail(inv, MPoly.variable("x"))
    table = fraction_table(normal_form_table(inv, 1, (F(0), F(0))))
    assert table == {s: {s: 1} for s in table} and len(table) == 6


@pytest.mark.parametrize("corrupt", [
    lambda terms, lead: terms.update(
        {to_int(to_slot(lead).derive(1, 0)): UNIT}),
], ids=["slot-above-lead"])
def test_forward_substitution_guard_fires(corrupt):
    # an equation that names a slot above its lead must not yield a
    # KeyError or silently wrong data  [DERIVED]
    inv = complete(determining_system(parse_ode("y'' = 0")))
    e = inv.eqs[0]
    corrupt(e.terms, e.lead)
    e.invalidate()
    with pytest.raises(InternalInvariantError, match="not solved over lower"):
        normal_form_table(inv, inv.max_parametric_order() + 2, (F(0), F(0)))


def test_generators_reconstruct_from_series_basis():
    # the eight classical fields of y'' = 0 lie in the span of the basis,
    # with coordinates given by their parametric data  [DERIVED]
    inv, basis, _ = run("y'' = 0")
    values = basis_values(basis)
    fields = [(ONE, ZERO), (ZERO, ONE), (X, ZERO), (Y, ZERO),
              (ZERO, X), (ZERO, Y), (X * X, X * Y), (X * Y, Y * Y)]
    for xi, eta in fields:
        data = solution_data_from_components(xi, eta, basis.point, basis.N)
        coords = [data[to_slot(p)] for p in basis.parametric]
        for slot, value in data.items():
            recon = sum((values[k][slot] * c
                         for k, c in enumerate(coords)), F(0))
            assert recon == value


# -- structure constants -------------------------------------------------------------


def common_denominator(basis):
    return lcm(*(v.denominator for data in basis_values(basis)
                 for v in data.values()))


# The sweep below makes these checks on every bench input; cc_image3 is no
# bench input, and the other two pin the common denominator
@pytest.mark.parametrize("text,den", [
    (REFERENCE_INPUTS["cc_image3"], None),
    ("y''''=y^2", 4),
    ("y'''=2*y*y''-3*(y')^2", 3),
])
def test_structure_constants_match_fraction_reference(text, den):
    # the integer brackets over one common denominator agree with Leibniz's
    # rule taken on the Fraction data, at the first regular candidate
    # [DERIVED]
    inv, basis, table = run(text)
    assert basis.point == _first_regular_candidate(inv)
    if den is not None:
        assert common_denominator(basis) == den
    assert table.C == sparse_structure_constants(basis)


# the automatic point, and two fixed points off the origin
REFERENCE_POINTS = [None, (F(1), F(2)), (F(1, 2), F(1, 3))]


@pytest.mark.parametrize("ode,mirrored", bench_ranking_cases(),
                         indirect=["ode"])
def test_series_and_structure_match_the_references(ode, mirrored):
    # on every bench input, plain and translated, under both rankings, at
    # each point the basis is delta data satisfying every prolonged
    # completed equation through order N + 1, and the structure constants
    # are the sparse Fraction brackets' coordinates; the automatic point is
    # the first candidate where no lead coefficient vanishes  [DERIVED]
    inv = complete(ranking_case_system(ode, mirrored))
    for point in REFERENCE_POINTS:
        basis = series_basis(inv, point=point)
        if point is None:
            assert basis.point == _first_regular_candidate(inv)
        assert series_faults(inv, basis) == []
        assert (structure_constants(basis).C
                == sparse_structure_constants(basis))


@pytest.mark.parametrize("ode,mirrored", [
    pytest.param(*p.values, False, id=p.id) for p in bench_inputs()] + [
    pytest.param(("control-02", "shifted"), True,
                 id="control-02-shifted-" + MIRROR_RANKING)],
    indirect=["ode"])
def test_pointwise_oracle_counts_the_series_basis(ode, mirrored):
    # the series solutions of the uncompleted determining system at the
    # basis point, prolonged to K = max(n + 8, N + n) and projected to
    # order N, form a space of dimension m that holds every basis column:
    # it is then their span, found with no completion, ranking or layout
    # (Reid, Lin and Wittkopf, Stud. Appl. Math. 106, 2001)  [DERIVED]
    system = ranking_case_system(ode, mirrored)
    basis = series_basis(complete(system))
    N = basis.N
    rows = pointwise_rows(system, basis.point, max(ode.n + 8, N + ode.n), N)
    assert (N + 1) * (N + 2) - len(rows) == len(basis.cols)
    assert all(satisfies(rows, col) for col in keyed_columns(basis))


def test_series_checks_fail_on_a_changed_value():
    # one numerator moved at an order-N slot leaves the pointwise space and
    # breaks an exact residual; one constant changed breaks the agreement
    # with the sparse brackets  [DERIVED]
    system = determining_system(parse_ode("y'' = 0"))
    inv = complete(system)
    basis = series_basis(inv, point=(F(1, 2), F(1, 3)))
    N, m = basis.N, len(basis.cols)
    rows = pointwise_rows(system, basis.point, N + 8, N)
    assert all(satisfies(rows, col) for col in keyed_columns(basis))
    assert series_faults(inv, basis) == []
    for k, s in itertools.product(range(m), reference_slot_index(N)):
        if s.order == N:
            moved = _moved(basis, k, s, 1)
            assert not satisfies(rows, keyed_columns(moved)[k])
            assert series_faults(inv, moved)
    C, table = sparse_structure_constants(basis), structure_constants(basis)
    for i, j, k in itertools.product(range(m), repeat=3):
        table.C[i][j][k] += 1
        assert table.C != C
        table.C[i][j][k] -= 1


def _pointwise_dimension(text, K, N):
    """The pointwise bound at (1/3, 2/7), prolonged to K, projected to N."""
    rows = pointwise_rows(determining_system(parse_ode(text)),
                          (F(1, 3), F(2, 7)), K, N)
    return (N + 1) * (N + 2) - len(rows)


def test_pointwise_bound_needs_k_well_past_the_projection():
    # Painleve I has m = 0.  Projected at K - 2 it reads 3, 2, 1, 0 at K =
    # 6, ..., 9: the bound overshoots, one less per order, so no reading
    # shows that it is exact; K = n + 8 reads 0  [DERIVED]
    assert [_pointwise_dimension("y'' = 6*y^2 + x", K, K - 2)
            for K in range(6, 11)] == [3, 2, 1, 0, 0]


def test_pointwise_bound_needs_projection_order_n_minus_1():
    # at K = 12, the 17 fourth-order corpus inputs with m in {6, 8} read
    # m - 1 at projection order 2, where two solutions share their jets,
    # and m at order 3 = n - 1  [DERIVED]
    data = json.loads((BENCH_DATA / "corpus.json").read_text("utf-8"))
    cases = [(item["text"], item["m"]) for item in data["inputs"]
             if item["n"] == 4 and item["m"] in (6, 8)]
    assert len(cases) == 17
    for text, m in cases:
        assert [_pointwise_dimension(text, 12, N) for N in (2, 3)] == [
            m - 1, m], text


def test_pointwise_bound_settles_the_slow_inputs():
    # completion runs past 60 s on the first (README, Known limits) and
    # about 25 s on the second; the bound reads 0 at K = n + 8 on both, in
    # hundredths of a second, with no completion  [DERIVED]
    for text in ("y'' = (y')^3/(x^3+y^3+1)^2",
                 "y'' = 2*(y')^3 + x*y*(y')^2 + x*y*y' + 2"):
        assert _pointwise_dimension(text, 10, 8) == 0, text


def test_layout_positions_are_ranks():
    # every position k of the one layout holds the slot of rank k, with
    # its (u, order, dx, dy) beside it, through order MAX_TRUNCATION + 1
    lay = lieode.liealgebra._layout()
    top = lieode.liealgebra.MAX_TRUNCATION + 1
    assert len(lay.slots) == len(lay.meta) == (top + 1) * (top + 2)
    for k, (s, meta) in enumerate(zip(lay.slots, lay.meta)):
        u, dx, dy = fields(s)
        assert rank(s) == k and meta == (u, dx + dy, dx, dy)
    # a table past the layout is refused, not read out of range
    inv = complete(determining_system(parse_ode("y'' = 0")))
    with pytest.raises(InputError, match="above limit"):
        normal_form_table(inv, top + 1, (F(0), F(0)))


@pytest.mark.parametrize("ode", bench_inputs(), indirect=True)
def test_series_basis_columns_ascend_by_rank_and_order(ode):
    # structure_constants reads each column's derivatives in column order
    # and stops at the first one past order N, so the columns must ascend
    # by position and by order
    basis = series_basis(complete(determining_system(ode)))
    slots = list(reference_slot_index(basis.N + 1))
    for col in basis.cols:
        ks = [k for k, _ in col]
        assert ks == sorted(set(ks))
        orders = [slots[k].order for k in ks]
        assert orders == sorted(orders)


@pytest.mark.parametrize("ode", bench_inputs(), indirect=True)
def test_mirrored_input_gives_the_same_certificate(ode):
    # the mirror pushes the symmetry algebra forward by (x, y) -> (y, x), an
    # isomorphism, so the verdict read from the mirrored determining system
    # (m, case, derived dimension, derived abelian) is the input's
    inv = complete(mirror(determining_system(ode)))
    got = certify(ode.n, structure_constants(series_basis(inv)))
    assert got == analyze(ode).certificate


@pytest.mark.parametrize("text,den", [
    (text, None) for text in REFERENCE_INPUTS.values()] + [
    ("y''''=y^2", 4),
])
def test_series_basis_denominator_is_least_common(text, den):
    # one denominator for the whole basis, the least common denominator of
    # all its values  [DERIVED]
    _, basis, _ = run(text)
    assert basis.den == common_denominator(basis)
    assert den in (None, basis.den)


def test_translation_scaling_bracket():
    # {d_x, x d_x}: [e1, e2] = e1, so C[0][1] = (1, 0)  [PAPER]
    eqs = [{Slot(XI, 2, 0): UNIT}, {Slot(XI, 0, 1): UNIT},
           {Slot(ETA, 0, 0): UNIT}]
    inv = complete(list(map(int_keyed, eqs)))
    basis = series_basis(inv)
    table = structure_constants(basis)
    assert table.m == 2
    assert table.C[0][1] == [F(1), F(0)]
    assert table.C[1][0] == [F(-1), F(0)]
    D = derived_algebra(table)
    assert D.dimension == 1 and D.abelian


def test_constants_algebra_is_abelian():
    eqs = [{Slot(XI, 1, 0): UNIT}, {Slot(XI, 0, 1): UNIT},
           {Slot(ETA, 1, 0): UNIT}, {Slot(ETA, 0, 1): UNIT}]
    inv = complete(list(map(int_keyed, eqs)))
    table = structure_constants(series_basis(inv))
    assert all(c == 0 for row in table.C for vec in row for c in vec)
    assert derived_algebra(table).dimension == 0


def test_bracket_antisymmetry_and_jacobi_hold():
    _, _, table = run("y'' = 0")
    m = table.m
    for i, j in itertools.combinations(range(m), 2):
        assert table.C[i][j] == [-v for v in table.C[j][i]]
    table.validate()   # exact antisymmetry + Jacobi on all triples


def test_validate_rejects_broken_antisymmetry():
    C = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
    C[0][1] = [F(1), F(0)]
    C[1][0] = [F(1), F(0)]    # should be negated
    with pytest.raises(InternalInvariantError):
        lie_table(C).validate()


def test_validate_rejects_broken_jacobi():
    # sl2-like table with one sign flipped breaks Jacobi  [DERIVED]
    m = 3
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]

    def setbr(i, j, vec):
        C[i][j] = [F(v) for v in vec]
        C[j][i] = [-F(v) for v in vec]

    setbr(0, 1, (0, 0, 2))     # [e,f] = 2h   (sign flipped from -2h... )
    setbr(0, 2, (2, 0, 0))     # wrong sign relative to a consistent sl2
    setbr(1, 2, (0, 2, 0))
    with pytest.raises(InternalInvariantError):
        lie_table(C).validate()


def _sl2_table(scale):
    # sl2 with h = e2: [e0, e1] = h, [h, e0] = 2 e0, [h, e1] = -2 e1, every
    # constant times ``scale``  [DERIVED]
    m = 3
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]

    def setbr(i, j, vec):
        C[i][j] = [scale * v for v in vec]
        C[j][i] = [-scale * v for v in vec]

    setbr(0, 1, (0, 0, 1))
    setbr(2, 0, (2, 0, 0))
    setbr(2, 1, (0, -2, 0))
    return C


def test_fractional_sl2_table_is_valid_and_perfect():
    C = _sl2_table(F(1, 3))
    L = lie_table(C)
    L.validate()
    D = derived_algebra(L)
    assert D.dimension == 3 and not D.abelian
    vectors = [C[i][j] for i, j in itertools.combinations(range(3), 2)]
    assert D.basis == row_space_basis(vectors)


def test_validate_rejects_fractional_broken_tables():
    # constants with denominator 3: one flipped sign breaks Jacobi, one
    # transpose left unnegated breaks antisymmetry
    C = _sl2_table(F(1, 3))
    C[2][1] = [F(0), F(2, 3), F(0)]
    C[1][2] = [-c for c in C[2][1]]
    with pytest.raises(InternalInvariantError, match="Jacobi"):
        lie_table(C).validate()
    C = _sl2_table(F(1, 3))
    C[1][0] = list(C[0][1])
    with pytest.raises(InternalInvariantError, match="antisymmetric"):
        lie_table(C).validate()


def test_derived_algebra_closure_guard_fires(monkeypatch):
    # brackets of derived elements lie in the span by bilinearity, so only a
    # faulty reduction can trip the guard: drop the last row  [DERIVED]
    reduce_rows = lieode.liealgebra.integer_rref
    monkeypatch.setattr(lieode.liealgebra, "integer_rref",
                        lambda vs: reduce_rows(vs)[:-1])
    with pytest.raises(InternalInvariantError, match="not closed"):
        derived_algebra(lie_table(_sl2_table(F(1, 3))))


@pytest.mark.parametrize("text", list(REFERENCE_INPUTS.values()) + [
    "y'''=2*y*y''-3*(y')^2",
])
def test_derived_algebra_is_the_rref_of_the_brackets(text):
    # fraction-free elimination gives the canonical basis that rref over the
    # rationals gives; the last input has constants with denominator 3
    _, _, table = run(text)
    vectors = [table.C[i][j]
               for i, j in itertools.combinations(range(table.m), 2)]
    assert derived_algebra(table).basis == row_space_basis(vectors)


def _heisenberg_table():
    # [e0, e1] = (2/5) e2, every other bracket zero: the derived algebra is
    # span(e2), abelian  [DERIVED]
    C = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1] = [F(0), F(0), F(2, 5)]
    C[1][0] = [F(0), F(0), F(-2, 5)]
    return C


@pytest.mark.parametrize("C", [
    pytest.param(_sl2_table(F(1, 3)), id="sl2-third"),
    pytest.param(_heisenberg_table(), id="heisenberg"),
    pytest.param([[[F(0)] * 2 for _ in range(2)] for _ in range(2)],
                 id="zero"),
] + [pytest.param(text, id=key) for key, text in REFERENCE_INPUTS.items()])
def test_derived_abelian_flag_matches_fraction_brackets(C):
    # the flag comes out of the closure loop on integer rows; recompute it
    # by bracketing every pair of the rational basis through C
    table = run(C)[2] if isinstance(C, str) else lie_table(C)
    D = derived_algebra(table)
    expected = all(not any(fraction_bracket(table.C, u, v))
                   for u, v in itertools.combinations(D.basis, 2))
    assert D.abelian == expected


def _moved(basis, k, s, by):
    """The basis with element k's numerator at slot s moved by ``by``; a
    slot whose value was 0 gains an entry in the sparse column."""
    q = reference_slot_index(basis.N + 1)[s]
    col = dict(basis.cols[k])
    col[q] = col.get(q, 0) + by
    cols = list(basis.cols)
    cols[k] = tuple(sorted((p, v) for p, v in col.items() if v))
    return dataclasses.replace(basis, cols=tuple(cols))


def test_closure_check_fires_on_a_corrupted_datum():
    # one wrong value at order N, or at order N+1 (which the order-N bracket
    # values read), takes some bracket out of the solution space  [DERIVED]
    _, basis, _ = run("y'' = 0")
    N = basis.N
    assert (N, len(basis.cols)) == (4, 8)
    cases = [(k, s) for k in range(len(basis.cols))
             for s in reference_slot_index(N + 1) if s.order == N]
    assert len(cases) == 80
    cases.append((2, Slot(XI, N + 1, 0)))
    for k, s in cases:
        with pytest.raises(InternalInvariantError,
                           match="leaves the solution space"):
            structure_constants(_moved(basis, k, s, basis.den))


def _over_seven(basis):
    """The basis over 7 times its denominator, with the same values."""
    return dataclasses.replace(
        basis, cols=tuple(tuple((k, 7 * v) for k, v in col)
                          for col in basis.cols), den=7 * basis.den)


def test_closure_check_fires_on_a_fractional_datum():
    # data with common denominator 4, basis d_x and (1-x)/4 d_x + y d_y at
    # (1, 1): one value moved by 1/7, at order N or at an order-N+1 slot
    # that [d_x, .] reads, takes a bracket out of the solution space; the
    # whole basis over 7 times its denominator, which by itself changes
    # nothing, carries the moved values  [DERIVED]
    _, basis, table = run("y''''=y^2")
    N = basis.N
    assert common_denominator(basis) == 4
    seven = _over_seven(basis)
    assert structure_constants(seven) == table
    cases = [(0, s) for s in reference_slot_index(N + 1) if s.order == N]
    cases += [(1, Slot(XI, N, 0)), (1, Slot(ETA, N, 0)),
              (0, Slot(ETA, 0, N + 1))]
    for k, s in cases:
        with pytest.raises(InternalInvariantError,
                           match="leaves the solution space"):
            structure_constants(_moved(seven, k, s, basis.den))


def test_structure_constants_stable_under_deeper_truncation():
    inv, basis, table = run("y''' + 3*y'*y'' + (y')^3 - 2*(y'' + (y')^2) + y' = 0")
    deeper = series_basis(inv, point=basis.point, N=basis.N + 2)
    assert structure_constants(deeper).C == table.C


def test_structure_constants_stable_across_expansion_points():
    inv = complete(determining_system(parse_ode("y'' = y^2")))
    invariants = []
    for p in itertools.islice(expansion_points(), 4):
        try:
            basis = series_basis(inv, point=p)
        except SingularPoint:
            continue
        table = structure_constants(basis)
        cert = certify(2, table)
        invariants.append((cert.m, cert.derived_dimension,
                           cert.derived_abelian))
    assert len(invariants) >= 2
    assert len(set(invariants)) == 1


# -- certificates --------------------------------------------------------------------


def _synthetic_scaling_action(n, m):
    """m-dim table: e_m scales an abelian ideal e_1..e_n; the rest is central."""
    C = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        vec = [F(0)] * m
        vec[i] = F(1)       # [e_m, e_i] = e_i
        C[m - 1][i] = vec
        C[i][m - 1] = [-v for v in vec]
    table = lie_table(C)
    table.validate()
    return table


def test_certify_maximal_cases():
    _, _, t2 = run("y'' = 0")
    cert = certify(2, t2)
    assert cert.linearizable and cert.case == CASE_TRIVIAL and cert.m == 8

    _, _, t4 = run("y'''' = 0")
    cert = certify(4, t4)
    assert cert.linearizable and cert.case == CASE_TRIVIAL and cert.m == 8


def test_certify_negative_case():
    _, _, table = run("y'' = y^2")
    cert = certify(2, table)
    assert not cert.linearizable
    assert cert.case == CASE_NONE and cert.m == 2


def test_certify_constant_coefficients_case():
    # image of a genuinely non-trivial constant-coefficient cubic  [DERIVED]
    _, _, table = run("y''' + 3*y'*y'' + (y')^3 - 2*(y'' + (y')^2) + y' = 0")
    cert = certify(3, table)
    assert cert.linearizable
    assert cert.case == CASE_CONSTANT
    assert cert.m == 5 and cert.derived_dimension == 3 and cert.derived_abelian


def test_certify_synthetic_intermediate_dimensions():
    # n+1 with an abelian derived algebra of dimension n: linearizable,
    # nonconstant-coefficients; same at n+2; n+3 is never linearizable
    cert = certify(3, _synthetic_scaling_action(3, 4))
    assert cert.linearizable and cert.case == CASE_NONCONSTANT

    cert = certify(3, _synthetic_scaling_action(3, 5))
    assert cert.linearizable and cert.case == CASE_CONSTANT

    abelian6 = lie_table([[[F(0)] * 6 for _ in range(6)] for _ in range(6)])
    cert = certify(3, abelian6)
    assert not cert.linearizable and cert.case == CASE_NONE


def test_certify_small_dimensions_need_the_derived_condition():
    # m = n+2 alone is not enough: an abelian 5-dim algebra has derived
    # dimension 0, not n, so certification must refuse it
    abelian5 = lie_table([[[F(0)] * 5 for _ in range(5)] for _ in range(5)])
    cert = certify(3, abelian5)
    assert not cert.linearizable


def test_certify_n2_requires_maximal():
    # for second-order equations only m = 8 certifies
    cert = certify(2, _synthetic_scaling_action(2, 4))
    assert not cert.linearizable


def test_certificate_case_table(monkeypatch):
    # every (n, m, derived dimension, abelian flag) up to the bound, against
    # the rules as stated: n = 2 needs m = 8; n >= 3 needs m = n + 4, or
    # m in {n+1, n+2} with an abelian derived algebra of dimension n
    derived = {}
    monkeypatch.setattr(lieode.liealgebra, "derived_algebra",
                        lambda L: derived["D"])
    seen = 0
    for n in range(2, 7):
        for m in range(9 if n == 2 else n + 5):
            L = lie_table([[[F(0)] * m for _ in range(m)]
                           for _ in range(m)])
            for dd, ab in itertools.product(range(m + 1), (False, True)):
                rows = [(k, [int(c == k) for c in range(m)])
                        for k in range(dd)]
                derived["D"] = Subalgebra(rows, ab)
                if n == 2:
                    case = CASE_TRIVIAL if m == 8 else CASE_NONE
                elif m == n + 4:
                    case = CASE_TRIVIAL
                elif m in (n + 1, n + 2) and ab and dd == n:
                    case = CASE_CONSTANT if m == n + 2 else CASE_NONCONSTANT
                else:
                    case = CASE_NONE
                cert = certify(n, L)
                assert cert.case == case
                assert cert.verdict == ("linearizable" if case != CASE_NONE
                                        else "not-linearizable")
                assert (cert.m, cert.n, cert.derived_dimension,
                        cert.derived_abelian) == (m, n, dd, ab)
                seen += 1
    assert seen == 494


@functools.lru_cache(maxsize=None)
def _second_order_bench():
    """(id, ode, m) for every n = 2 bench input, plain and translated."""
    return [(name, ode, analyze(ode).m) for name, plain, shifted in bench_odes()
            for ode in (plain, shifted) if ode.n == 2]


def test_tresse_invariant_agrees_with_the_dimension():
    # Lie and Tresse: y'' = F is linearizable iff F is cubic in y' and the
    # relative invariant vanishes; for n = 2 that is m = 8  [DERIVED]
    cases = _second_order_bench()
    assert len(cases) == 54
    for name, ode, m in cases:
        assert tresse_holds(ode) == (m == 8), name


def test_tresse_invariant_with_a_sign_changed_disagrees():
    # the oracle is not vacuous: with 6 F_yy changed to -6 F_yy, some
    # verdict no longer matches the dimension  [DERIVED]
    assert any(tresse_holds(ode, yy=-6) != (m == 8)
               for _, ode, m in _second_order_bench())


# Coefficients of the drawn cubic equations.  Products such as x*y are left
# out: some equations over them take half a minute to complete
_CUBIC_COEFFS = ["0", "0", "1", "-1", "2", "x", "y"]


@given(st.tuples(*[st.sampled_from(_CUBIC_COEFFS)] * 4))
def test_tresse_invariant_agrees_on_drawn_cubic_equations(coeffs):
    # y'' = a y'^3 + b y'^2 + c y' + d is linearizable iff m = 8, and
    # Tresse's test decides the same without completion  [DERIVED]
    a, b, c, d = coeffs
    ode = parse_ode(f"y'' = ({a})*(y')^3 + ({b})*(y')^2 + ({c})*y' + ({d})")
    assert tresse_holds(ode) == (analyze(ode).m == 8)


def test_tresse_invariant_settles_the_second_order_hang():
    # completion of this input runs past any budget, but the invariant
    # needs no completion: it is not linearizable  [DERIVED]
    assert not tresse_holds(parse_ode("y'' = (y')^2/(x^2+y^2+1)"))


def test_dimension_bounds():
    assert assert_dimension_bounds(2, 8) == 8
    assert assert_dimension_bounds(3, 7) == 7
    with pytest.raises(InternalInvariantError):
        assert_dimension_bounds(2, 9)
    with pytest.raises(InternalInvariantError):
        assert_dimension_bounds(3, 8)


def test_certificate_serialization():
    cert = Certificate("linearizable", CASE_TRIVIAL, 8, 2, 8, False)
    d = cert.as_dict()
    assert d == {"verdict": "linearizable", "case": "trivial", "m": 8,
                 "n": 2, "derived_dimension": 8, "derived_abelian": False}
