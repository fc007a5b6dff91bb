from fractions import Fraction

import pytest

from frobforge.errors import AlgebraError
from frobforge.laurent import (
    UPoly,
    LaurentTail,
    lagrange_root_expansion,
    sylvester_resultant,
)
from frobforge.poly import MultiPoly

ONE = MultiPoly.const(0, 1)


def upoly(coeffs, arity=0):
    return UPoly(arity, {d: MultiPoly.const(arity, c) for d, c in coeffs.items()})


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
