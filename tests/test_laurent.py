from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobforge.errors import AlgebraError
from frobforge.laurent import (
    UPoly,
    LaurentTail,
    expand_ratio,
    lagrange_root_expansion,
    residue_at_infinity,
    sylvester_resultant,
)
from frobforge.poly import MultiPoly

ONE = MultiPoly.const(0, 1)


def upoly(coeffs, arity=0):
    return UPoly(arity, {d: MultiPoly.const(arity, c) for d, c in coeffs.items()})


def test_residue_one_over_x():
    assert residue_at_infinity(upoly({0: 1}), upoly({1: 1})) == MultiPoly.const(0, -1)


def test_residue_no_inverse_term():
    assert residue_at_infinity(upoly({0: 1}), upoly({2: 3})).is_zero()


def test_residue_x_over_x2_plus_1():
    # long division: x/(x^2+1) = 1/x - 1/x^3 + ..., so the residue is -1
    got = residue_at_infinity(upoly({1: 1}), upoly({2: 1, 0: 1}))
    assert got == MultiPoly.const(0, -1)


def test_residue_division_by_zero():
    with pytest.raises(AlgebraError):
        residue_at_infinity(upoly({1: 1}), UPoly(0, {}))


def test_residue_order_hint_too_small():
    with pytest.raises(AlgebraError):
        residue_at_infinity(upoly({5: 1}), upoly({1: 1}), order_hint=2)
    # large enough hint succeeds
    val = residue_at_infinity(upoly({5: 1}), upoly({1: 1}), order_hint=10)
    assert val.is_zero()


@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
def test_residue_linearity(den_coeffs, a, b):
    den = upoly({i + 1: c for i, c in enumerate(den_coeffs)} | {len(den_coeffs) + 1: 1})
    f = upoly({2: 1, 0: 3})
    g = upoly({1: 5})
    lhs = residue_at_infinity(
        UPoly(0, {d: c.scale(a) for d, c in f.coeffs.items()})
        + UPoly(0, {d: c.scale(b) for d, c in g.coeffs.items()}),
        den,
    )
    rhs = residue_at_infinity(f, den).scale(a) + residue_at_infinity(g, den).scale(b)
    assert lhs == rhs


def test_long_division_oracle():
    # brute-force long division of x^3 / (x^2 + 2x + 3) down to x^-3
    tail = expand_ratio(upoly({3: 1}), upoly({2: 1, 1: 2, 0: 3}), -3)
    # x^3/(x^2+2x+3) = x - 2 + (1/x)(1) + ...: verify by re-multiplying
    den = upoly({2: 1, 1: 2, 0: 3})
    back = tail.mul(den.as_tail())
    for e in range(0, 4):
        expect = MultiPoly.const(0, 1 if e == 3 else 0)
        assert back.coefficient(e) == expect


def test_puiseux_square():
    f = upoly({2: 1})
    tail = lagrange_root_expansion(f, 1)
    assert tail.coefficient(1) == ONE
    assert tail.coefficient(0).is_zero()


def test_puiseux_square_plus_parameter():
    s = MultiPoly.variable(1, 0)
    f = UPoly(1, {2: MultiPoly.const(1, 1), 0: s})
    tail = lagrange_root_expansion(f, 2)
    assert tail.coefficient(-1) == s.scale(Fraction(-1, 2))
    assert tail.coefficient(0).is_zero()


def test_puiseux_cubic():
    s1 = MultiPoly.variable(2, 0)
    s2 = MultiPoly.variable(2, 1)
    f = UPoly(2, {3: MultiPoly.const(2, 1), 1: s1, 0: s2})
    tail = lagrange_root_expansion(f, 3)
    assert tail.coefficient(-1) == s1.scale(Fraction(-1, 3))
    assert tail.coefficient(-2) == s2.scale(Fraction(-1, 3))


def test_puiseux_reproduces_power():
    # substituting the truncated expansion back into f by repeated products
    # returns k^m exactly, down to the stated remainder order
    s1 = MultiPoly.variable(2, 0)
    s2 = MultiPoly.variable(2, 1)
    f = UPoly(2, {4: MultiPoly.const(2, 1), 2: s1, 0: s2})
    order = 5
    x = lagrange_root_expansion(f, order)
    fx = LaurentTail(2, {}, None)
    power = LaurentTail.one(2)
    for d in range(f.degree + 1):
        if d in f.coeffs:
            fx = fx.add(LaurentTail(2, {0: f.coeffs[d]}, None).mul(power))
        power = power.mul(x)
    for e in range(4 - order, 5):
        expect = MultiPoly.const(2, 1) if e == 4 else MultiPoly.zero(2)
        assert fx.coefficient(e) == expect, e
    # one order further the truncation is honest: that coefficient is unknown
    with pytest.raises(AlgebraError):
        fx.coefficient(4 - order - 1)


def test_puiseux_rejects_nonmonic():
    f = upoly({2: 2})
    with pytest.raises(AlgebraError):
        lagrange_root_expansion(f, 2)


def test_resultant_discriminant_of_depressed_cubic():
    # Res(f, f') for f = x^3 + p x + q equals -(4 p^3 + 27 q^2)
    p = MultiPoly.variable(2, 0)
    q = MultiPoly.variable(2, 1)
    f = UPoly(2, {3: MultiPoly.const(2, 1), 1: p, 0: q})
    res = sylvester_resultant(f, f.diff_x())
    expect = (p**3).scale(4) + (q**2).scale(27)
    assert res == expect
