from fractions import Fraction

import numpy as np
import pytest

from frobforge.charts import check_axioms, check_wdvv, intersection_form, structure_constants, virasoro_central_charge
from frobforge.laurent import sylvester_resultant
from frobforge.linalg import is_constant_multiple
from frobforge.poly import MultiPoly
from frobforge.unfolding import (
    Unfolding,
    build_an_chart,
    critical_values,
    euler_weights,
    flat_coordinates,
    residue_series,
)


def test_unfolding_shape():
    unf = Unfolding.build(3)
    assert unf.f.degree == 4
    # coefficient of x^n vanishes: the family is x^4 + s1 x^2 + s2 x + s3
    assert 3 not in unf.f.coeffs


def pairing(a, n, i, j):
    """<d_i, d_j> = a_{n+1-i-j} (1-based), zero for a negative index."""
    m = n + 1 - i - j
    return a[m] if m >= 0 else MultiPoly.zero(n)


def triple(a, n, i, j, k):
    """c_ijk = a_{2n+1-i-j-k} (1-based), zero for a negative index."""
    m = 2 * n + 1 - i - j - k
    return a[m] if m >= 0 else MultiPoly.zero(n)


def test_residue_pairing_n2():
    a = residue_series(Unfolding.build(2))
    assert pairing(a, 2, 1, 2) == MultiPoly.const(2, 1)
    assert pairing(a, 2, 1, 1).is_zero()      # at every s, not only s = 0
    assert pairing(a, 2, 2, 2).is_zero()      # integrand decays like x^-2


def test_residue_pairing_n1():
    a = residue_series(Unfolding.build(1))
    assert pairing(a, 1, 1, 1) == MultiPoly.const(1, 1)  # -2 res 1/(2x) = 1


def test_residue_triple_n2():
    a = residue_series(Unfolding.build(2))
    assert triple(a, 2, 2, 2, 2).is_zero()
    assert triple(a, 2, 1, 2, 2) == MultiPoly.const(2, 1)
    # entry (1,1,1) = -s1/3
    assert triple(a, 2, 1, 1, 1) == MultiPoly.variable(2, 0).scale(Fraction(-1, 3))


@pytest.mark.parametrize("n", range(1, 11))
def test_residue_series_inverts_fprime(n):
    # f' * sum_{m <= 2n-2} a_m x^{2n-2-m} = (n+1) x^{3n-2} + terms of degree < n:
    # the dropped tail a_m x^{-m}, m >= 2n-1, only reaches degree n-1
    unf = Unfolding.build(n)
    a = residue_series(unf)
    assert len(a) == 2 * n - 1
    product = {}
    for d, c in unf.fprime.coeffs.items():
        for m, am in enumerate(a):
            e = d + 2 * n - 2 - m
            product[e] = product.get(e, MultiPoly.zero(n)) + c * am
    for e in range(n, 3 * n - 1):
        expect = MultiPoly.const(n, n + 1) if e == 3 * n - 2 else MultiPoly.zero(n)
        assert product.get(e, MultiPoly.zero(n)) == expect, (n, e)


def test_flat_coordinates_n1():
    fc = flat_coordinates(Unfolding.build(1))
    assert fc.t_of_s[0] == MultiPoly.variable(1, 0)


def test_flat_coordinates_n2_structure():
    fc = flat_coordinates(Unfolding.build(2))
    # unity-first labels: t^1 = s2, t^2 = s1
    assert fc.t_of_s[0] == MultiPoly.variable(2, 1)
    assert fc.t_of_s[1] == MultiPoly.variable(2, 0)
    assert fc.eta == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_flat_coordinates_n3_grading():
    n = 3
    fc = flat_coordinates(Unfolding.build(n))
    weights = euler_weights(n)
    # Lie_E t^b = w_b t^b with E = sum ((k+1)/(n+1)) s_k d/ds_k, exactly
    for b in range(n):
        tb = fc.t_of_s[b]
        lie = MultiPoly.zero(n)
        for k in range(n):
            lie = lie + MultiPoly.variable(n, k) * tb.diff(k) * Fraction(k + 2, n + 1)
        assert lie == tb.scale(weights[b])
    # metric constant and antidiagonal
    for a in range(n):
        for b in range(n):
            assert fc.eta[a][b] == (1 if a + b == n - 1 else 0)


def test_flat_inverse_roundtrip():
    fc = flat_coordinates(Unfolding.build(3))
    for b in range(3):
        assert fc.t_of_s[b].compose(list(fc.s_of_t)) == MultiPoly.variable(3, b)


def test_build_chart_n1_potential():
    chart = build_an_chart(1)
    assert chart.potential == MultiPoly(1, {(3,): Fraction(1, 6)})


def test_build_chart_n2_potential():
    chart = build_an_chart(2)
    expect = MultiPoly(
        2, {(2, 1): Fraction(1, 2), (0, 4): Fraction(-1, 72)}
    )
    assert chart.potential == expect
    assert chart.charge_d == Fraction(1, 3)


def test_build_chart_n3_spectrum():
    chart = build_an_chart(3)
    assert chart.charge_d == Fraction(1, 2)
    diag = [chart.euler_linear[i][i] for i in range(3)]
    assert diag == [Fraction(1), Fraction(3, 4), Fraction(1, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_passes_all_exact_checks(n):
    chart = build_an_chart(n)
    assert check_wdvv(chart).passed
    report = check_axioms(chart)
    assert report.unity_ok and report.quasihomogeneous
    # quasihomogeneity has no quadratic correction here
    assert report.quadratic_defect is None


def test_build_chart_n9_verified_with_unit_antidiagonal_eta():
    chart = build_an_chart(9)
    assert chart.eta == tuple(
        tuple(Fraction(1 if a + b == 8 else 0) for b in range(9)) for a in range(9)
    )


def test_chart_tensor_matches_residue_transport():
    # structure constants from the integrated potential reproduce the
    # residue tensor pushed through the coordinate change (independent route)
    n = 3
    chart = build_an_chart(n)
    unf = Unfolding.build(n)
    fc = flat_coordinates(unf)
    c_chart = structure_constants(chart)
    a = residue_series(unf)
    jac = [[fc.s_of_t[i].diff(a) for a in range(n)] for i in range(n)]
    eta_inv = chart.eta_inv
    for al in range(n):
        for be in range(al, n):
            for ga in range(n):
                # lower the chart tensor: c_{al be ga} = eta_{ga e} c_{al be}^e
                lowered = MultiPoly.zero(n)
                for e in range(n):
                    if chart.eta[ga][e]:
                        lowered = lowered + c_chart[al][be][e].scale(chart.eta[ga][e])
                direct = MultiPoly.zero(n)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        for k in range(1, n + 1):
                            cij = triple(a, n, i, j, k).compose(list(fc.s_of_t))
                            if cij.is_zero():
                                continue
                            direct = direct + (
                                jac[i - 1][al] * jac[j - 1][be] * jac[k - 1][ga] * cij
                            )
                assert lowered == direct
    _ = eta_inv


@pytest.mark.parametrize("n,expected", [(2, 24), (3, 60), (4, 120), (5, 210)])
def test_central_charges(n, expected):
    assert virasoro_central_charge(build_an_chart(n)) == expected


def test_critical_values_n2():
    unf = Unfolding.build(2)
    vals = critical_values(unf, [Fraction(-3), Fraction(0)])
    assert sorted(v.real for v in vals) == pytest.approx([-2.0, 2.0], abs=1e-10)
    assert all(abs(v.imag) < 1e-10 for v in vals)


def test_critical_values_degenerate_double_point():
    unf = Unfolding.build(2)
    vals = critical_values(unf, [Fraction(0), Fraction(5)])
    assert len(vals) == 2
    for v in vals:
        assert abs(v - 5) < 1e-8


def test_critical_values_n1():
    unf = Unfolding.build(1)
    vals = critical_values(unf, [Fraction(7, 3)])
    assert len(vals) == 1
    assert abs(vals[0] - 7 / 3) < 1e-12


def test_discriminant_matches_intersection_determinant():
    # det g vanishes exactly where the critical values collide
    for n in (2, 3):
        chart = build_an_chart(n)
        unf = Unfolding.build(n)
        fc = flat_coordinates(unf)
        det_g = intersection_form(chart).determinant
        disc = sylvester_resultant(unf.f, unf.fprime)
        disc_t = disc.compose(list(fc.s_of_t))
        assert is_constant_multiple(det_g, disc_t) is not None
