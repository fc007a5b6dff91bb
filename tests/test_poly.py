from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobforge.errors import AlgebraError
from frobforge.poly import MultiPoly


def mk(arity, terms):
    return MultiPoly(arity, {tuple(e): Fraction(c) for e, c in terms.items()})


fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def polys(draw, arity=3, max_terms=6, max_exp=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(arity))
        terms[e] = draw(fracs)
    return MultiPoly(arity, terms)


def test_zero_coefficients_not_stored():
    p = mk(2, {(1, 0): 1, (0, 1): 0})
    assert len(p.terms) == 1
    assert p.coefficient((0, 1)) == 0


def test_constructor_rejects_bad_exponents():
    with pytest.raises(AlgebraError):
        MultiPoly(2, {(1,): Fraction(1)})
    with pytest.raises(AlgebraError):
        MultiPoly(2, {(-1, 0): Fraction(1)})


def test_arithmetic_basics():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_diff_examples():
    # d/dt1 (t1^2 t2) = 2 t1 t2
    p = mk(2, {(2, 1): 1})
    assert p.diff(0) == mk(2, {(1, 1): 2})
    # derivative of a constant vanishes
    assert MultiPoly.const(2, 5).diff(1).is_zero()
    # the method works on both kinds
    from frobforge.series import ExpSeries

    s = ExpSeries(2, 0, 3, {2: mk(2, {(0, 1): 1})})
    assert s.diff(0) == s.scale(2)  # marker rule: factor k = 2


@given(polys(), st.integers(0, 2), st.integers(0, 2))
def test_mixed_partials_commute(p, a, b):
    assert p.diff(a).diff(b) == p.diff(b).diff(a)


@given(polys(), st.integers(0, 2))
def test_integrate_inverts_diff(p, v):
    assert p.integrate(v).diff(v) == p


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(polys(), polys())
@settings(max_examples=40)
def test_product_evaluation_homomorphism(p, q):
    point = [Fraction(1, 2), Fraction(-2), Fraction(3, 5)]
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_compose_matches_substitution():
    p = mk(2, {(2, 1): 3, (0, 2): -1})
    u = mk(1, {(1,): 1, (0,): 2})   # t + 2
    v = mk(1, {(2,): 1})            # t^2
    composed = p.compose([u, v])
    for x in (Fraction(0), Fraction(1, 3), Fraction(-2)):
        assert composed.evaluate([x]) == p.evaluate([u.evaluate([x]), v.evaluate([x])])


def test_degree_helpers():
    p = mk(2, {(2, 1): 1, (0, 4): 1})
    assert p.total_degree() == 4
    assert p.degree_in(0) == 2
    assert p.drop_degree_at_most(3) == mk(2, {(0, 4): 1})
    assert MultiPoly.zero(2).total_degree() == -1
