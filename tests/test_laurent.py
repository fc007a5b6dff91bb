from fractions import Fraction

import pytest

from frobforge.errors import AlgebraError
from frobforge.laurent import LaurentTail
from frobforge.poly import MultiPoly
from frobforge.unfolding import Unfolding, binomial_power_series, flat_coordinates


def _root_expansion(f, order):
    """x(k) = k + sum_{j<order} c_j k^{-j} with k^m = f(x), for monic f without
    an x^{m-1} term given as coefficients by x-degree: with f = x^m (1 + g(y)),
    y = 1/x, Lagrange inversion gives c_j = -(1/j) [y^{j+1}] (1 + g)^{j/m}."""
    m, arity = len(f) - 1, f[0].arity
    g = {m - d: c for d, c in enumerate(f[:m])}
    coeffs = {1: MultiPoly.const(arity, 1)}
    for j in range(1, order):
        top = binomial_power_series(g, Fraction(j, m), j + 1, arity)[-1]
        coeffs[-j] = top.scale(Fraction(-1, j))
    return LaurentTail(arity, coeffs, -(order - 1))


def test_puiseux_reproduces_power():
    # substituting the truncated expansion back into f by repeated products
    # returns k^m exactly, down to the stated remainder order, for
    # x^2 + s, x^3 + s1 x + s2 and x^4 + s1 x^2 + s2
    s1, s2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    zero, one = MultiPoly.zero(2), MultiPoly.const(2, 1)
    a1, a2 = Unfolding.build(1), Unfolding.build(2)
    cases = [(a1.f, 3, a1), (a2.f, 4, a2), ((s2, zero, s1, zero, one), 5, None)]
    for f, order, unf in cases:
        m, arity = len(f) - 1, f[0].arity
        x = _root_expansion(f, order)
        fx = LaurentTail(arity, {}, None)
        power = LaurentTail.one(arity)
        for c in f:
            fx = fx.add(LaurentTail(arity, {0: c}, None).mul(power))
            power = power.mul(x)
        for e in range(m - order, m + 1):
            expect = MultiPoly.const(arity, 1 if e == m else 0)
            assert fx.coefficient(e) == expect, (m, e)
        # one order further the truncation is honest: that coefficient is unknown
        with pytest.raises(AlgebraError):
            fx.coefficient(m - order - 1)
        # on the unfoldings these coefficients are the flat coordinates,
        # t_old_j = -(n+1) c_j, listed unity first
        if unf is not None:
            t_of_s = flat_coordinates(unf).t_of_s
            for j in range(1, m):
                assert t_of_s[m - 1 - j] == x.coefficient(-j).scale(-m), (m, j)
