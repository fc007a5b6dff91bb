import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from frobforge.charts import (
    FMChart,
    check_axioms,
    check_wdvv,
    intersection_form,
    structure_constants,
    virasoro_central_charge,
)
from frobforge.deformed import (
    deformed_flat_coordinates,
    pairing_defect,
    pairing_holds,
)
from frobforge.errors import AlgebraError, ValidationError
from frobforge.linalg import frac_matrix
from frobforge.poly import MultiPoly
from frobforge.projective import build_p2_chart
from frobforge.unfolding import build_an_chart


def mk(arity, terms):
    return MultiPoly(arity, {tuple(e): Fraction(c) for e, c in terms.items()})


def nilpotent_cubic():
    # F = 1/2 t1^2 t2, eta antidiagonal
    return FMChart(
        n=2,
        eta=frac_matrix([[0, 1], [1, 0]]),
        potential=mk(2, {(2, 1): Fraction(1, 2)}),
        euler_linear=frac_matrix([[1, 0], [0, Fraction(1, 3)]]),
        euler_const=(Fraction(0), Fraction(0)),
        charge_d=Fraction(2, 3),
        unity_index=1,
    )


def split_cubic():
    # two idempotents; F = t1^3/3 + t1 t2^2, eta = 2 Id, E = t d/dt, d = 0
    return FMChart(
        n=2,
        eta=frac_matrix([[2, 0], [0, 2]]),
        potential=mk(2, {(3, 0): Fraction(1, 3), (1, 2): 1}),
        euler_linear=frac_matrix([[1, 0], [0, 1]]),
        euler_const=(Fraction(0), Fraction(0)),
        charge_d=Fraction(0),
        unity_index=1,
    )


def line_chart():
    # n = 1: F = t^3/6, E = t d/dt
    return FMChart(
        n=1,
        eta=frac_matrix([[1]]),
        potential=mk(1, {(3,): Fraction(1, 6)}),
        euler_linear=frac_matrix([[1]]),
        euler_const=(Fraction(0),),
        charge_d=Fraction(0),
        unity_index=1,
    )


def test_chart_validation():
    with pytest.raises(ValidationError):
        FMChart(
            n=2,
            eta=frac_matrix([[0, 1], [2, 0]]),  # not symmetric
            potential=mk(2, {(2, 1): 1}),
            euler_linear=frac_matrix([[1, 0], [0, 1]]),
            euler_const=(Fraction(0), Fraction(0)),
            charge_d=Fraction(0),
        )


def test_structure_constants_nilpotent_cubic():
    c = structure_constants(nilpotent_cubic())
    assert c[0][0][0] == MultiPoly.const(2, 1)
    # entries with both lower indices equal to 2 vanish
    assert c[1][1][0].is_zero() and c[1][1][1].is_zero()


def test_structure_constants_line_chart():
    # direct third derivative of t^3/6 is 1
    c = structure_constants(line_chart())
    assert c[0][0][0] == MultiPoly.const(1, 1)


def test_wdvv_trivial_cubics_pass():
    assert check_wdvv(nilpotent_cubic()).passed
    assert check_wdvv(split_cubic()).passed


def test_wdvv_any_two_dimensional_potential_passes():
    # associativity is automatic for a 2-dimensional algebra with unity
    chart = FMChart(
        n=2,
        eta=frac_matrix([[0, 1], [1, 0]]),
        potential=mk(2, {(2, 1): Fraction(1, 2), (0, 5): 1}),
        euler_linear=frac_matrix([[1, 0], [0, Fraction(1, 3)]]),
        euler_const=(Fraction(0), Fraction(0)),
        charge_d=Fraction(2, 3),
    )
    assert check_wdvv(chart).passed


def test_axioms_pass_on_consistent_grading():
    report = check_axioms(split_cubic())
    assert report.unity_ok and report.quasihomogeneous


def test_axioms_catch_unity_violation():
    bad = FMChart(
        n=2,
        eta=frac_matrix([[1, 0], [0, 1]]),
        potential=mk(2, {(2, 1): Fraction(1, 2)}),
        euler_linear=frac_matrix([[1, 0], [0, 1]]),
        euler_const=(Fraction(0), Fraction(0)),
        charge_d=Fraction(0),
    )
    assert not check_axioms(bad).unity_ok


def test_virasoro_line_chart():
    assert virasoro_central_charge(line_chart()) == 6


def test_virasoro_pole_at_charge_one():
    chart = FMChart(
        n=2,
        eta=frac_matrix([[0, 1], [1, 0]]),
        potential=mk(2, {(2, 1): Fraction(1, 2)}),
        euler_linear=frac_matrix([[1, 0], [0, 0]]),
        euler_const=(Fraction(0), Fraction(0)),
        charge_d=Fraction(1),
    )
    with pytest.raises(AlgebraError):
        virasoro_central_charge(chart)


def test_intersection_form_line_chart():
    g = intersection_form(line_chart())
    assert g.entry(1, 1) == MultiPoly.variable(1, 0)
    assert g.determinant == MultiPoly.variable(1, 0)


def test_intersection_form_linear_for_constant_algebra():
    g = intersection_form(split_cubic())
    for row in g.entries:
        for entry in row:
            assert entry.total_degree() <= 1


def test_intersection_form_reduces_to_eta_inverse_at_unity_point():
    chart = nilpotent_cubic()
    g = intersection_form(chart)
    # E(t) = (t1, t2/3) equals the unity vector at t = (1, 0)
    point = [Fraction(1), Fraction(0)]
    eta_inv = chart.eta_inv
    for a in range(2):
        for b in range(2):
            assert g.entries[a][b].evaluate(point) == eta_inv[a][b]


@pytest.mark.parametrize("build, re_t2", [
    pytest.param(lambda: build_an_chart(3), 0.0, id="A3"),
    # on P^2 the marker terms of degree > 3 dropped by the truncation are
    # below double precision only far down the t2 axis
    pytest.param(lambda: build_p2_chart(3), -6.0, id="P2@3"),
])
def test_intersection_form_determinant_matches_numeric(build, re_t2):
    chart = build()
    g = intersection_form(chart)
    rng = np.random.default_rng(3)
    for _ in range(3):
        t = rng.normal(size=chart.n) * 0.5 + 1j * rng.normal(size=chart.n) * 0.5
        t[1] += re_t2
        entries = np.array([[complex(e.evaluate(list(t))) for e in row] for row in g.entries])
        expect = np.linalg.det(entries)
        got = complex(g.determinant.evaluate(list(t)))
        assert abs(got - expect) <= 1e-10 * abs(expect)


def test_deformed_flat_theta0_and_theta1():
    chart = split_cubic()
    series = deformed_flat_coordinates(chart, 3)
    ident = series.matrices[0]
    for a in range(2):
        for b in range(2):
            assert ident[a][b] == MultiPoly.const(2, 1 if a == b else 0)
    for lam in (1, 2):
        assert series.theta(1, lam) == chart.potential.diff(lam - 1)


def test_deformed_flat_closed_form_for_constant_multiplication():
    # with constant structure constants, Theta_p = M(t)^p / p! where
    # M = eta^{-1} Hess F; iterate the matrix product as the oracle
    chart = split_cubic()
    order = 4
    series = deformed_flat_coordinates(chart, order)
    n = chart.n
    eta_inv = chart.eta_inv
    F = chart.potential
    M = [
        [
            sum(
                (F.diff(e).diff(b).scale(eta_inv[a][e]) for e in range(n)),
                MultiPoly.zero(n),
            )
            for b in range(n)
        ]
        for a in range(n)
    ]
    power = [[MultiPoly.const(n, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    fact = 1
    for p in range(1, order + 1):
        power = [
            [
                sum((power[i][k] * M[k][j] for k in range(n)), MultiPoly.zero(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        fact *= p
        for i in range(n):
            for j in range(n):
                assert series.matrices[p][i][j] == power[i][j].scale(Fraction(1, fact))
        # each theta^(p) is homogeneous of degree p + 1
        for lam in (1, 2):
            assert series.theta(p, lam).total_degree() == p + 1


def test_deformed_flat_pairing_small_orders():
    chart = split_cubic()
    series = deformed_flat_coordinates(chart, 4)
    assert pairing_holds(chart, series, 4)


def test_deformed_series_and_pairing_order_bounds():
    chart = split_cubic()
    with pytest.raises(AlgebraError, match="order must be >= 0"):
        deformed_flat_coordinates(chart, -1)
    series = deformed_flat_coordinates(chart, 2)
    for p in (-1, 3):
        with pytest.raises(AlgebraError, match="outside 0..2"):
            pairing_defect(chart, series, p)
        with pytest.raises(AlgebraError, match="outside 0..2"):
            pairing_holds(chart, series, p)
        with pytest.raises(AlgebraError, match="outside 0..2"):
            series.theta(p, 1)
    for lam in (-1, 0, 3):
        with pytest.raises(AlgebraError, match="outside 1..2"):
            series.theta(1, lam)
    assert series.theta(2, 2) == series.thetas[2][1]


def test_deformed_recursion_rejects_a_non_wdvv_chart():
    chart = build_an_chart(3)
    bad = dataclasses.replace(
        chart, potential=chart.potential + MultiPoly.monomial(3, (0, 2, 2), Fraction(1, 7))
    )
    assert check_wdvv(chart).passed
    assert not check_wdvv(bad).passed
    deformed_flat_coordinates(chart, 4)
    with pytest.raises(
        AlgebraError, match="deformed-flat recursion inconsistent at order 2, component 2"
    ):
        deformed_flat_coordinates(bad, 4)
