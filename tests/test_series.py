import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def test_product_saturates_at_truncation():
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


# -- the q-polynomial storage against a per-marker-degree reference -------------
#
# A reference series is a dict {k: MultiPoly} of the coefficients of e^{k t'};
# each operation below is the textbook per-part rule.


def ref_mul(a, b, trunc):
    out = {}
    for k1, p1 in a.items():
        for k2, p2 in b.items():
            if k1 + k2 <= trunc:
                out[k1 + k2] = out.get(k1 + k2, p1.zero_like()) + p1 * p2
    return out


def ref_add(a, b):
    out = dict(a)
    for k, p in b.items():
        out[k] = out[k] + p if k in out else p
    return out


def ref_diff(a, var, marker):
    return {k: p.diff(var) + p.scale(k if var == marker else 0) for k, p in a.items()}


def ref_integrate(a, var, marker):
    out = {}
    for k, p in a.items():
        if var != marker or k == 0:
            out[k] = p.integrate(var)
            continue
        # int p e^{k t'} dt' = e^{k t'} (p/k - p'/k^2 + p''/k^3 - ...)
        acc, term, sign = p.zero_like(), p.scale(Fraction(1, k)), 1
        while not term.is_zero():
            acc = acc + term.scale(sign)
            term, sign = term.diff(var).scale(Fraction(1, k)), -sign
        out[k] = acc
    return out


def ref_subs_zero_marker(a, marker, arity):
    return {0: sum((p.subs_zero(marker) for p in a.values()), MultiPoly.zero(arity))}


def ref_evaluate(a, point, marker):
    return sum(complex(p.evaluate(point)) * cmath.exp(k * point[marker]) for k, p in a.items())


@st.composite
def series_pairs(draw):
    arity = draw(st.integers(1, 3))
    marker = draw(st.integers(0, arity - 1))
    trunc = draw(st.integers(0, 3))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    monos = st.dictionaries(st.tuples(*[st.integers(0, 2)] * arity), coeffs, max_size=3)
    parts = st.dictionaries(st.integers(0, trunc), monos.map(lambda d: MultiPoly(arity, d)),
                            max_size=trunc + 1)
    a, b = draw(parts), draw(parts)
    var = draw(st.integers(0, arity - 1))
    point = draw(st.lists(st.complex_numbers(max_magnitude=1.5), min_size=arity, max_size=arity))
    return arity, marker, trunc, a, b, var, point


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_q_storage_matches_per_part_reference(case):
    arity, marker, trunc, a, b, var, point = case

    def series(parts):
        return ExpSeries(arity, marker, trunc, parts)

    sa, sb = series(a), series(b)
    for k in range(trunc + 1):
        assert sa.part(k) == a.get(k, MultiPoly.zero(arity))
    assert sa * sb == series(ref_mul(a, b, trunc))
    assert sa + sb == series(ref_add(a, b))
    for v in {var, marker}:
        assert sa.diff(v) == series(ref_diff(a, v, marker))
        assert sa.integrate(v) == series(ref_integrate(a, v, marker))
    assert sa.subs_zero(marker) == series(ref_subs_zero_marker(a, marker, arity))
    assert sa.subs_zero(marker).marker_degrees() in ([], [0])
    dropped = {k: p.drop_degree_at_most(1) if k == 0 else p for k, p in a.items()}
    assert sa.drop_degree_at_most(1) == series(dropped)
    expect = ref_evaluate(a, point, marker)
    assert abs(sa.evaluate(point) - expect) <= 1e-12 * max(1.0, abs(expect))


# -- the fused sum of products against a plain Fraction double loop ------------
#
# ExpSeries.__mul__ is a one-pair dot, so the oracle multiplies the
# q-polynomials term by term and drops q-degrees above trunc as it goes.

def plain_dot(zero, pairs):
    out = {}
    for a, b in pairs:
        for e1, c1 in zero._coerce(a).terms.items():
            for e2, c2 in zero._coerce(b).terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if e[-1] <= zero.trunc:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ExpSeries.from_q_poly(MultiPoly(zero.arity + 1, out), zero.marker_var, zero.trunc)


@st.composite
def series_dot_cases(draw):
    """0-4 pairs of series of one (arity, marker, trunc) whose q-degrees reach
    trunc, so products cross the cap; second factors may be polynomials or
    integers, and a pair may be followed by its negation."""
    arity = draw(st.integers(1, 3))
    marker = draw(st.integers(0, arity - 1))
    trunc = draw(st.integers(0, 3))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 8]))
    t_exps = st.tuples(*[st.integers(0, 2)] * arity)
    q_exps = st.tuples(*[st.integers(0, 2)] * arity, st.integers(0, trunc))
    series = st.dictionaries(q_exps, coeffs, max_size=3).map(
        lambda d: ExpSeries.from_q_poly(MultiPoly(arity + 1, d), marker, trunc)
    )
    poly = st.dictionaries(t_exps, coeffs, max_size=3).map(lambda d: MultiPoly(arity, d))
    other = st.one_of(series, poly, st.integers(-3, 3))
    pairs = []
    for a, b in draw(st.lists(st.tuples(series, other), max_size=4)):
        pairs.append((a, b))
        if draw(st.booleans()):
            pairs.append((-a, b))
    return ExpSeries(arity, marker, trunc), pairs


@settings(max_examples=200, deadline=None)
@given(series_dot_cases())
def test_dot_matches_sum_of_products(case):
    zero, pairs = case
    got = zero.dot(pairs)
    assert got == plain_dot(zero, pairs)
    assert got.poly.degree_in(zero.arity) <= zero.trunc


def test_dot_truncates_once_at_the_end():
    # e^{2 t2} * e^{2 t2} is beyond the cap q^3; t1 e^{t2} * e^{2 t2} is at it
    high = term(2, (0, 0, 0), 1, trunc=3)
    low = term(1, (1, 0, 0), Fraction(1, 2), trunc=3)
    zero = high.zero_like()
    assert zero.dot([(high, high)]).is_zero()
    # (t1/2) e^{t2} e^{2 t2} + 4 (t1/2) e^{t2} = (t1/2) e^{3 t2} + 2 t1 e^{t2}
    expect = term(3, (1, 0, 0), Fraction(1, 2), trunc=3) + term(1, (1, 0, 0), 2, trunc=3)
    assert zero.dot([(high, high), (low, high), (low, 4)]) == expect
    assert zero.dot([]) == zero
    assert zero.dot([(high, zero), (zero, low)]).is_zero()
