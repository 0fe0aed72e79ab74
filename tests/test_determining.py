"""Determining systems: prolongation formulas, jet collection, known kernels."""
from fractions import Fraction

import pytest

from lieode.determining import (ETA, XI, Slot, determining_system,
                                prolonged_eta, substitute_generator)
from lieode.jets import jet_name, jet_order
from lieode.parsing import parse_ode
from lieode.ratfunc import RatFunc


def jet(k):
    return RatFunc.variable(jet_name(k))


X = RatFunc.variable("x")
Y = RatFunc.variable("y")
ONE = RatFunc.one()
ZERO = RatFunc.zero()


def _up_to_scale(eq, expected):
    """Equation dicts match after dividing out one common nonzero factor."""
    if set(eq) != set(expected):
        return False
    slot = next(iter(expected))
    ratio = eq[slot] / expected[slot]
    return all(eq[s] == ratio * expected[s] for s in expected)


# -- prolongation -----------------------------------------------------------------


def test_first_prolongation_formula():
    # eta^(1) = eta_x + (eta_y - xi_x) y' - xi_y (y')^2  [PAPER]
    got = prolonged_eta(1)[1]
    expected = {
        Slot(ETA, 1, 0): RatFunc.one(),
        Slot(ETA, 0, 1): jet(1),
        Slot(XI, 1, 0): -jet(1),
        Slot(XI, 0, 1): -(jet(1) * jet(1)),
    }
    assert got == expected


def test_second_prolongation_formula():
    # eta^(2) = eta_xx + (2 eta_xy - xi_xx) y' + (eta_yy - 2 xi_xy) (y')^2
    #           - xi_yy (y')^3 + (eta_y - 2 xi_x) y'' - 3 xi_y y' y''  [PAPER]
    got = prolonged_eta(2)[2]
    y1, y2 = jet(1), jet(2)
    expected = {
        Slot(ETA, 2, 0): RatFunc.one(),
        Slot(ETA, 1, 1): RatFunc.const(2) * y1,
        Slot(XI, 2, 0): -y1,
        Slot(ETA, 0, 2): y1 * y1,
        Slot(XI, 1, 1): RatFunc.const(-2) * y1 * y1,
        Slot(XI, 0, 2): -(y1 ** 3),
        Slot(ETA, 0, 1): y2,
        Slot(XI, 1, 0): RatFunc.const(-2) * y2,
        Slot(XI, 0, 1): RatFunc.const(-3) * y1 * y2,
    }
    assert got == expected


def test_prolongation_recursion_order_bound():
    for k in (1, 2, 3):
        expr = prolonged_eta(k)[k]
        assert max(jet_order(p) for p in expr.values()) <= k


# -- the classical free-particle system --------------------------------------------


def test_free_particle_determining_equations():
    # Collecting y'^3, y'^2, y'^1, y'^0 for y'' = 0 gives the textbook set
    #   xi_yy = 0,  eta_yy - 2 xi_xy = 0,  2 eta_xy - xi_xx = 0,  eta_xx = 0
    # [PAPER]
    system = determining_system(parse_ode("y'' = 0"))
    assert len(system.equations) == 4
    expected = [
        {Slot(XI, 0, 2): ONE},
        {Slot(ETA, 0, 2): ONE, Slot(XI, 1, 1): RatFunc.const(-2)},
        {Slot(ETA, 1, 1): RatFunc.const(2), Slot(XI, 2, 0): -ONE},
        {Slot(ETA, 2, 0): ONE},
    ]
    matched = [any(_up_to_scale(eq, want) for eq in system.equations)
               for want in expected]
    assert all(matched)


def test_provenance_tracks_jet_monomials():
    system = determining_system(parse_ode("y'' = 0"))
    labels = {lab for labs in system.provenance for lab in labs}
    assert labels == {"1", "y'", "(y')^2", "(y')^3"}


# -- membership oracle: known symmetries annihilate the system ---------------------

FREE_PARTICLE_GENERATORS = [
    # the eight point symmetries of y'' = 0  [PAPER]
    (ONE, ZERO),
    (X, ZERO),
    (Y, ZERO),
    (ZERO, ONE),
    (ZERO, X),
    (ZERO, Y),
    (X * X, X * Y),
    (X * Y, Y * Y),
]


def test_free_particle_generators_satisfy_system():
    system = determining_system(parse_ode("y'' = 0"))
    for xi, eta in FREE_PARTICLE_GENERATORS:
        for eq in system.equations:
            assert substitute_generator(eq, xi, eta).is_zero()


def test_non_symmetry_is_rejected_by_some_equation():
    system = determining_system(parse_ode("y'' = 0"))
    xi, eta = X * X, ZERO   # x^2 d/dx alone is not a symmetry
    assert any(not substitute_generator(eq, xi, eta).is_zero()
               for eq in system.equations)


def test_painleve_control_generators():
    # y'' = y^2 admits d/dx and x d/dx - 2y d/dy and nothing else;
    # both must satisfy the system, a scaling with the wrong weight must not.
    # [DERIVED: direct substitution]
    system = determining_system(parse_ode("y'' = y^2"))
    for xi, eta in [(ONE, ZERO), (X, RatFunc.const(-2) * Y)]:
        for eq in system.equations:
            assert substitute_generator(eq, xi, eta).is_zero()
    assert any(not substitute_generator(eq, X, -Y).is_zero()
               for eq in system.equations)


def test_rational_coefficient_equation():
    # y'' + y'/x = 0: generators include x d/dx and y d/dy  [DERIVED]
    system = determining_system(parse_ode("y'' + y'/x = 0"))
    for xi, eta in [(X, ZERO), (ZERO, Y)]:
        for eq in system.equations:
            assert substitute_generator(eq, xi, eta).is_zero()


def test_third_order_system_size_stays_small():
    # one equation per jet monomial; the cubic equation stays within the
    # monomials of (y', y'') up to the prolongation's degree
    system = determining_system(parse_ode("y''' + y*y' = 0"))
    assert 4 <= len(system.equations) <= 12
    orders = {s.order for eq in system.equations for s in eq}
    assert max(orders) == 3
