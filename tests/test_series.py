import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobforge.errors import AlgebraError
from frobforge.poly import MultiPoly
from frobforge.series import ExpSeries


def term(marker, exps, coeff, trunc=4):
    return ExpSeries(3, 1, trunc, {marker: MultiPoly.monomial(3, exps, Fraction(coeff))})


def test_marker_derivative_rule():
    # d/dt2 (t3 e^{2 t2}) = 2 t3 e^{2 t2}
    s = term(2, (0, 0, 1), 1)
    assert s.diff(1) == term(2, (0, 0, 1), 2)


def test_derivative_mixes_polynomial_and_marker():
    # d/dt2 (t2 e^{t2}) = (1 + t2) e^{t2}
    s = term(1, (0, 1, 0), 1)
    expect = term(1, (0, 0, 0), 1) + term(1, (0, 1, 0), 1)
    assert s.diff(1) == expect


def test_product_saturates_and_flags():
    a = term(3, (0, 0, 0), 1)
    b = term(2, (0, 0, 0), 1)
    prod = a * b
    assert prod.is_zero()


def test_integrate_plain_variable():
    s = term(1, (2, 0, 0), 3)
    assert s.integrate(0) == term(1, (3, 0, 0), 1)


def test_integrate_marker_variable_by_parts():
    # int t2 e^{2 t2} dt2 = (t2/2 - 1/4) e^{2 t2}
    s = term(2, (0, 1, 0), 1)
    got = s.integrate(1)
    expect = term(2, (0, 1, 0), Fraction(1, 2)) + term(2, (0, 0, 0), Fraction(-1, 4))
    assert got == expect


@given(st.integers(0, 3), st.integers(0, 2))
def test_integrate_inverts_diff_on_marker_terms(k, m):
    s = ExpSeries(3, 1, 4, {k: MultiPoly.monomial(3, (1, m, 0), Fraction(3, 2))})
    if k == 0:
        assert s.integrate(1).diff(1) == s
    else:
        assert s.integrate(1).diff(1) == s


def test_subs_zero_collapses_markers():
    s = term(2, (0, 0, 1), 1) + term(0, (0, 1, 1), 5)
    collapsed = s.subs_zero(1)
    assert collapsed.marker_degrees() == [0]
    assert collapsed.part(0) == MultiPoly.monomial(3, (0, 0, 1), 1)


def test_evaluate_matches_exponentials():
    s = term(2, (1, 0, 0), 1) + term(0, (0, 2, 0), 3)
    t = [0.5 + 0.1j, -0.3 + 0.2j, 1.1]
    expect = t[0] * cmath.exp(2 * t[1]) + 3 * t[1] ** 2
    assert abs(s.evaluate(t) - expect) < 1e-12


def test_drop_affine_only_touches_marker_zero():
    s = term(0, (1, 0, 0), 2) + term(0, (0, 0, 0), 7) + term(1, (0, 0, 0), 5)
    got = s.drop_degree_at_most(1)
    assert got == term(1, (0, 0, 0), 5)


def test_incompatible_series_rejected():
    a = term(0, (0, 0, 0), 1, trunc=4)
    b = ExpSeries(3, 1, 5, {0: MultiPoly.const(3, 1)})
    with pytest.raises(AlgebraError):
        _ = a + b


def test_marker_degree_bounds():
    with pytest.raises(AlgebraError):
        ExpSeries(3, 1, 2, {3: MultiPoly.const(3, 1)})
