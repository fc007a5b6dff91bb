from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobforge.errors import AlgebraError
from frobforge.linalg import poly_mat_det
from frobforge.poly import MultiPoly
from frobforge.series import ExpSeries


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


def test_constructor_rejects_non_integer_exponents():
    for exps in ((0.5, 1), (True, 0), (1, "2"), (1.0, 0)):
        with pytest.raises(AlgebraError):
            MultiPoly(2, {exps: Fraction(1)})


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


# -- the product against a plain Fraction double loop ---------------------------

def plain_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


wide_coeffs = st.builds(
    Fraction,
    st.integers(-(10**20), 10**20),
    st.integers(-(10**15), 10**15).filter(bool),
)


@st.composite
def product_pairs(draw):
    """Two factors of one arity (0-4), each with its own exponent range, so
    exponents fall on both sides of the base the other factor alone would
    need; sizes start at the empty polynomial."""
    arity = draw(st.integers(0, 4))

    def factor():
        top = draw(st.sampled_from([0, 1, 3, 9, 255, 256, 10**6, 2**70]))
        exps = st.tuples(*[st.integers(0, top)] * arity)
        return MultiPoly(arity, draw(st.dictionaries(exps, wide_coeffs, max_size=6)))

    return factor(), factor()


@given(product_pairs())
@settings(max_examples=300)
def test_product_matches_plain_double_loop(pair):
    p, q = pair
    got = p * q
    assert got.arity == p.arity
    assert got.terms == plain_product(p, q)
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    assert all(type(e) is int for exps in got.terms for e in exps)
    assert (q * p).terms == got.terms


def test_product_cancellation_stores_no_zero():
    x = MultiPoly.variable(1, 0)
    got = (x + 1) * (x - 1)
    assert got.terms == {(2,): Fraction(1), (0,): Fraction(-1)}
    y = MultiPoly.variable(2, 1)
    half = MultiPoly.const(2, Fraction(1, 2))
    assert ((y + half) * (y - half) - y * y + Fraction(1, 4)).terms == {}


def test_product_empty_and_arity_zero():
    a = MultiPoly.const(0, Fraction(-3, 4))
    b = MultiPoly.const(0, Fraction(8, 9))
    assert (a * b).terms == {(): Fraction(-2, 3)}
    assert (a * MultiPoly.zero(0)).terms == {}
    p = mk(2, {(3, 1): Fraction(5, 7)})
    assert (p * MultiPoly.zero(2)).terms == {}
    assert (MultiPoly.zero(2) * p).terms == {}


# -- the fused sum of products against a plain Fraction double loop ------------
#
# MultiPoly.__mul__ is a one-pair dot, so the oracle adds plain_product dicts.

def plain_dot(pairs):
    out = {}
    for a, b in pairs:
        for e, c in plain_product(a, b).items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def dot_cases(draw):
    """0-5 pairs in arity 0-3 with denominators that share few factors, so the
    common denominator grows mid-stream; a pair may be followed by its
    negation, so parts of the sum cancel."""
    arity = draw(st.integers(0, 3))
    coeffs = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 5, 7, 9, 16]))
    exps = st.tuples(*[st.integers(0, 5)] * arity)
    factor = st.dictionaries(exps, coeffs, max_size=4).map(lambda d: MultiPoly(arity, d))
    pairs = []
    for a, b in draw(st.lists(st.tuples(factor, factor), max_size=5)):
        pairs.append((a, b))
        if draw(st.booleans()):
            pairs.append((-a, b))
    return arity, pairs


@given(dot_cases())
@settings(max_examples=200)
def test_dot_matches_sum_of_products(case):
    arity, pairs = case
    zero = MultiPoly.zero(arity)
    got = zero.dot(iter(pairs))
    assert got.arity == arity
    assert got.terms == plain_dot(pairs)
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())


def test_dot_rescales_cancels_and_skips_zeros():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    zero = MultiPoly.zero(2)
    # denominators 1, then 6, then 4: the accumulator is rescaled to 6, then 12
    got = zero.dot([
        (x, y),
        (x.scale(Fraction(1, 2)), y.scale(Fraction(1, 3))),
        (x.scale(Fraction(1, 2)), x.scale(Fraction(1, 2))),
    ])
    assert got.terms == {(1, 1): Fraction(7, 6), (2, 0): Fraction(1, 4)}
    half = Fraction(1, 2)
    assert zero.dot([(x + half, y), (-x - half, y)]).terms == {}
    assert zero.dot([(zero, x), (y, zero)]).terms == {}
    assert zero.dot([]) == zero and zero.dot([]).arity == 2
    assert zero.dot([(x, 3), (half, y)]) == 3 * x + half * y
    a, b = MultiPoly.const(0, Fraction(-3, 4)), MultiPoly.const(0, Fraction(8, 9))
    assert MultiPoly.zero(0).dot([(a, b), (a, a)]).terms == {(): Fraction(-2, 3) + Fraction(9, 16)}
    with pytest.raises(AlgebraError):
        zero.dot([(MultiPoly.variable(3, 0), x)])
    with pytest.raises(AlgebraError):
        x * MultiPoly.variable(3, 0)


# -- the determinant against first-row cofactor expansion -------------------------

def cofactor_det(rows):
    """The textbook n! expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].zero_like()
    for j, entry in enumerate(rows[0]):
        term = entry * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + (term if j % 2 == 0 else -term)
    return total


@st.composite
def det_matrices(draw):
    """1x1 to 5x5 matrices of sparse polynomials in two variables, or of
    series in them with q = e^{t2} truncated at q^2; entries may be zero."""
    size = draw(st.integers(1, 5))
    series = draw(st.booleans())
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exps = st.tuples(*[st.integers(0, 2)] * (3 if series else 2))
    terms = st.dictionaries(exps, coeffs, max_size=2)
    if series:
        entry = terms.map(lambda d: ExpSeries.from_q_poly(MultiPoly(3, d), 1, 2))
    else:
        entry = terms.map(lambda d: MultiPoly(2, d))
    return [[draw(entry) for _ in range(size)] for _ in range(size)]


@given(det_matrices())
@settings(max_examples=80, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    assert poly_mat_det(rows) == cofactor_det(rows)
