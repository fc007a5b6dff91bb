import dataclasses
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobforge.charts import FMChart, structure_constants, third_derivatives
from frobforge.errors import NumericError, SemisimplicityError, ValidationError
from frobforge.frames import (
    ChartEvaluator,
    _require_separated,
    canonical_coordinates,
    canonical_frame,
    canonical_frames,
    match_ordering,
    vi_matrices,
)
from frobforge.linalg import frac_matrix
from frobforge.poly import MultiPoly
from frobforge.projective import build_p2_chart
from frobforge.unfolding import Unfolding, build_an_chart, critical_values, flat_coordinates


def mk(arity, terms):
    return MultiPoly(arity, {tuple(e): Fraction(c) for e, c in terms.items()})


def split_cubic():
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
    return FMChart(
        n=1,
        eta=frac_matrix([[1]]),
        potential=mk(1, {(3,): Fraction(1, 6)}),
        euler_linear=frac_matrix([[1]]),
        euler_const=(Fraction(0),),
        charge_d=Fraction(0),
        unity_index=1,
    )


def test_line_chart_frame():
    fr = canonical_frame(line_chart(), [0.7])
    assert abs(fr.u[0] - 0.7) < 1e-14
    assert abs(fr.psi[0, 0] - 1) < 1e-14
    assert abs(fr.v[0, 0]) < 1e-14


def test_split_cubic_coordinates_linear():
    # idempotent coordinates are t1 + t2 and t1 - t2
    ev = ChartEvaluator(split_cubic())
    u = canonical_coordinates(ev, [0.9, 0.4])
    assert sorted(x.real for x in u) == pytest.approx([0.5, 1.3], abs=1e-12)


def test_split_cubic_frame_hand_oracle():
    fr = canonical_frame(split_cubic(), [0.9, 0.4])
    # Psi rows are (1, +-1) for the two normalized idempotents
    got = sorted(tuple(np.round(row.real, 9)) for row in fr.psi)
    assert got == [(1.0, -1.0), (1.0, 1.0)]
    # charge 0 with grad E = Id makes mu = 0 and hence V = 0
    assert np.max(np.abs(fr.v)) < 1e-13


def test_caustic_detection():
    with pytest.raises(SemisimplicityError):
        canonical_coordinates(split_cubic(), [0.9, 0.0])  # t2 = 0 merges the u's


def test_frame_identities_on_a3():
    chart = build_an_chart(3)
    ev = ChartEvaluator(chart)
    eta = np.array([[float(x) for x in row] for row in chart.eta])
    rng = np.random.default_rng(2)
    for _ in range(5):
        t = rng.normal(size=3) + 1j * rng.normal(size=3) * 0.3
        try:
            fr = canonical_frame(ev, t)
        except SemisimplicityError:
            continue
        assert np.max(np.abs(fr.psi.T @ fr.psi - eta)) < 1e-10
        assert np.array_equal(fr.v, -fr.v.T)
        spec_v = sorted(np.linalg.eigvals(fr.v), key=lambda z: z.real)
        spec_mu = sorted(float(m) for m in fr.mu_diag)
        assert max(abs(a - b) for a, b in zip(spec_v, spec_mu)) < 1e-8
        # branch-free determinant identity: det(eta) J^2 = prod <pi_i, pi_i>
        det_eta = np.linalg.det(eta)
        assert abs(det_eta * fr.J**2 - np.prod(fr.norms)) < 1e-10


def test_jacobian_matches_finite_differences():
    # dt^a/du_i from the idempotents agrees with numeric differentiation of
    # the critical values (the inverse map), used here as the oracle
    chart = build_an_chart(2)
    ev = ChartEvaluator(chart)
    t0 = np.array([0.4, -1.1])
    fr = canonical_frame(ev, t0)
    h = 1e-6
    num = np.zeros((2, 2), dtype=complex)  # du_i/dt^a
    for a in range(2):
        tp, tm = t0.astype(complex).copy(), t0.astype(complex).copy()
        tp[a] += h
        tm[a] -= h
        up = canonical_frame(ev, tp).u
        um = canonical_frame(ev, tm).u
        num[:, a] = (up - um) / (2 * h)
    # fr.idempotents rows are dt^a/du_i; its inverse transposed gives du/dt
    inv = np.linalg.inv(fr.idempotents)
    assert np.max(np.abs(inv.T - num)) < 1e-6


def test_a2_spectrum_at_marked_point():
    # the unfolding point s = (-3, 0) maps to t = (0, -3) and has Euler
    # spectrum {-2, 2}, the critical values of x^3 - 3x
    chart = build_an_chart(2)
    u = canonical_coordinates(chart, [0.0, -3.0])
    assert sorted(x.real for x in u) == pytest.approx([-2.0, 2.0], abs=1e-12)


def test_canonical_equals_critical_values():
    chart = build_an_chart(3)
    unf = Unfolding.build(3)
    fc = flat_coordinates(unf)
    ev = ChartEvaluator(chart)
    s = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    t = [complex(p.evaluate(s)) for p in fc.t_of_s]
    u = canonical_coordinates(ev, t)
    cv = critical_values(unf, s)
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    assert max(
        abs(a - b) for a, b in zip(sorted(u, key=key), sorted(cv, key=key))
    ) < 1e-8


def test_canonical_equals_critical_values_a4():
    chart = build_an_chart(4)
    unf = Unfolding.build(4)
    fc = flat_coordinates(unf)
    ev = ChartEvaluator(chart)
    s = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 3)]
    t = [complex(p.evaluate(s)) for p in fc.t_of_s]
    u = canonical_coordinates(ev, t)
    cv = critical_values(unf, s)
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    assert max(
        abs(a - b) for a, b in zip(sorted(u, key=key), sorted(cv, key=key))
    ) < 1e-8


def test_vi_two_by_two():
    u = [0.0, 1.0]
    v = 0.3 - 0.2j
    V = np.array([[0, v], [-v, 0]])
    vis = vi_matrices(u, V)
    assert abs(vis.vs[0][0, 1] - v / (u[0] - u[1])) < 1e-14
    assert np.max(np.abs(vis.vs[0] + vis.vs[1])) < 1e-14


def test_vi_zero_v():
    vis = vi_matrices([0.0, 1.0, 2.0], np.zeros((3, 3)))
    for Vi in vis.vs:
        assert np.max(np.abs(Vi)) == 0


def test_vi_defining_equations():
    rng = np.random.default_rng(0)
    u = np.array([0.0, 1.0, 2.5 + 0.5j, -1.0 + 1.0j])
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    V = (A - A.T) / 2
    vis = vi_matrices(u, V)
    U = np.diag(u)
    for i, Vi in enumerate(vis.vs):
        lhs = U @ Vi - Vi @ U
        rhs = vis.e_units[i] @ V - V @ vis.e_units[i]
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert np.max(np.abs(Vi + Vi.T)) < 1e-12
    assert np.max(np.abs(vis.total())) < 1e-12


def test_vi_rejects_coincident_u():
    with pytest.raises(SemisimplicityError):
        vi_matrices([1.0, 1.0], np.zeros((2, 2)))


def test_match_ordering():
    u_ref = np.array([1.0, 2.0, 3.0])
    u_new = np.array([3.001, 1.002, 1.998])
    assert match_ordering(u_ref, u_new) == (1, 2, 0)


def _cost(u_ref, u_new, p):
    return sum(abs(u_new[p[i]] - u_ref[i]) for i in range(len(u_ref)))


# Points on a coarse grid make ties and colliding row argmins common, so both
# the argmin path and the assignment fallback of match_ordering are exercised.
_grid_point = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
_fine_point = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _ordering_inputs(draw):
    n = draw(st.integers(1, 6))
    point = draw(st.sampled_from([_grid_point, _fine_point]))
    u_ref = draw(st.lists(point, min_size=n, max_size=n))
    u_new = draw(st.lists(point, min_size=n, max_size=n))
    return np.array(u_ref), np.array(u_new)


@settings(max_examples=300, deadline=None)
@given(_ordering_inputs())
def test_match_ordering_attains_the_brute_force_minimum(inputs):
    u_ref, u_new = inputs
    n = len(u_ref)
    p = match_ordering(u_ref, u_new)
    assert sorted(p) == list(range(n))
    best = min(_cost(u_ref, u_new, q) for q in permutations(range(n)))
    assert _cost(u_ref, u_new, p) <= best + 1e-12


def test_match_ordering_strict_row_minima_give_the_brute_force_permutation():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u_ref = rng.normal(size=5) + 1j * rng.normal(size=5)
        u_new = u_ref[rng.permutation(5)] + 1e-3 * rng.normal(size=5)
        brute = min(permutations(range(5)), key=lambda q: _cost(u_ref, u_new, q))
        assert match_ordering(u_ref, u_new) == brute


def test_match_ordering_fallback_at_n10_is_fast_and_optimal():
    # every row argmin lands on column 0 or 9, so only the assignment solves it
    u_ref = np.arange(10.0) + 0j
    u_new = 4.5 + 1e-3 * np.arange(10.0) + 0j
    cost = np.abs(np.subtract.outer(u_ref, u_new))
    assert len(set(np.argmin(cost, axis=1))) < 10
    start = time.perf_counter()
    p = match_ordering(u_ref, u_new)
    assert time.perf_counter() - start < 0.2
    assert sorted(p) == list(range(10))
    # on a line the monotone matching is optimal for |x - y|
    assert _cost(u_ref, u_new, p) == pytest.approx(_cost(u_ref, u_new, range(10)), abs=1e-12)


def test_frame_defect_gate_rejects_a_non_associative_chart():
    # (1/10) t2^3 t3 breaks associativity: the defect is about 2e-1 here,
    # against about 2e-15 on the A3 chart itself
    a3 = build_an_chart(3)
    point = [0.2, 0.4, 1.1]
    assert canonical_frame(a3, point).defect < 1e-13
    bent = dataclasses.replace(
        a3, potential=a3.potential + MultiPoly.monomial(3, (0, 3, 1), Fraction(1, 10))
    )
    with pytest.raises(NumericError, match="^frame breakdown"):
        canonical_frame(bent, point)


@pytest.mark.parametrize(
    "chart", [build_an_chart(3), build_an_chart(5), build_p2_chart(5)], ids=["A3", "A5", "P2@5"]
)
def test_compiled_tensors_match_term_by_term_evaluation(chart):
    ev = ChartEvaluator(chart)
    n = chart.n
    c = structure_constants(chart)
    f3 = third_derivatives(chart)
    rng = np.random.default_rng(8)
    for _ in range(3):
        t = 0.4 * rng.normal(size=n) + 0.2j * rng.normal(size=n)
        ref_c = np.array([[[complex(c[a][b][g].evaluate(t)) for g in range(n)]
                           for b in range(n)] for a in range(n)])
        ref_f = np.array([[[complex(f3[a][b][g].evaluate(t)) for g in range(n)]
                           for b in range(n)] for a in range(n)])
        for got, ref in ((ev.c_tensor(t), ref_c), (ev.third(t), ref_f)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_compiled_tensors_over_a_stack_match_each_point():
    # P2@5 goes through the lift to (t, e^{t2}) of an exponential series
    for chart in (build_an_chart(4), build_p2_chart(5)):
        ev = ChartEvaluator(chart)
        rng = np.random.default_rng(4)
        T = 0.4 * rng.normal(size=(6, chart.n)) + 0.2j * rng.normal(size=(6, chart.n))
        for of in (ev.c_tensor, ev.euler):
            got = of(T)
            assert got.shape[0] == 6
            for k, t in enumerate(T):
                assert np.max(np.abs(got[k] - of(t))) <= 1e-13 * np.max(np.abs(got[k]))


def _semisimple_points(ev, centre, count, seed):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        t = np.asarray(centre) + 0.3 * rng.normal(size=ev.n) + 0.2j * rng.normal(size=ev.n)
        try:
            canonical_frame(ev, t)
        except NumericError:
            continue
        points.append(t)
    return np.array(points)


@pytest.mark.parametrize("chart, centre", [
    (build_an_chart(3), [0.8] * 3), (build_an_chart(5), [0.8] * 5), (build_p2_chart(5), [0.3, -2.0, 0.5]),
], ids=["A3", "A5", "P2@5"])
def test_canonical_frames_match_the_frame_of_each_point(chart, centre):
    ev = ChartEvaluator(chart)
    T = _semisimple_points(ev, centre, 24, 11)
    stack = canonical_frames(ev, T)
    assert len(stack) == len(T)
    for k, t in enumerate(T):
        one, fr = canonical_frame(ev, t), stack[k]
        for field in ("u", "psi", "v", "idempotents", "norms"):
            assert np.max(np.abs(getattr(fr, field) - getattr(one, field))) <= 1e-13
        assert fr.ordering == one.ordering
        assert fr.mu_diag == one.mu_diag
        assert abs(fr.defect - one.defect) <= 1e-13
    for bad in (T[0], T[:, :-1]):
        with pytest.raises(ValidationError, match="stack"):
            canonical_frames(ev, bad)


def _non_associative_a4():
    # A4 + (1/3) t2 t3^2 t4^3 fails WDVV; its third derivatives all vanish
    # where t2 = t4 = 0, so frames exist there
    a4 = build_an_chart(4)
    return dataclasses.replace(
        a4, potential=a4.potential + MultiPoly.monomial(4, (0, 1, 2, 3), Fraction(1, 3))
    )


def _error_of(fn, *args):
    with pytest.raises(NumericError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_a_stack_raises_the_error_of_its_first_failing_point():
    a3 = ChartEvaluator(build_an_chart(3))
    good = _semisimple_points(a3, [0.8] * 3, 3, 2)
    caustic = np.array([0, 0, -1])  # u_2 = u_3 exactly
    stack = np.array([good[0], good[1], caustic, good[2]])
    assert _error_of(canonical_frames, a3, stack) == _error_of(canonical_frame, a3, caustic)
    # an overflowing c-tensor is named, and does not stop the eigen-solve of
    # the whole stack
    overflow = np.array([0.2, 1e200, 1.1])
    overflow_error = _error_of(canonical_frame, a3, overflow)
    assert overflow_error == (NumericError, "frame breakdown: the multiplication by E is "
                                            "not finite at this point")
    assert _error_of(canonical_frames, a3, [good[0], overflow, caustic]) == overflow_error

    bad = ChartEvaluator(_non_associative_a4())
    fine, broken, origin = [0.3, 0, 0.5, 0], [0.3, -0.2, 0.5, 1.1], [0, 0, 0, 0]
    assert canonical_frame(bad, fine).defect < 1e-13
    broken_error = _error_of(canonical_frame, bad, broken)
    assert broken_error[0] is NumericError
    assert broken_error[1].startswith("frame breakdown")
    assert _error_of(canonical_frames, bad, [fine, broken, fine]) == broken_error
    # the origin fails the first check (u all zero), the broken point a later
    # one: the first point in the stack decides, not the first check
    origin_error = _error_of(canonical_frame, bad, origin)
    assert origin_error[0] is SemisimplicityError
    assert _error_of(canonical_frames, bad, [broken, origin]) == broken_error
    assert _error_of(canonical_frames, bad, [origin, broken]) == origin_error


def test_non_finite_frames_are_rejected_on_a_non_associative_chart():
    # NaN compares False against every tolerance; no frame with a non-finite
    # u, Psi, V or defect may come back
    ev = ChartEvaluator(_non_associative_a4())
    rng = np.random.default_rng(0)
    breakdowns = 0
    for _ in range(200):
        t = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            fr = canonical_frame(ev, t)
        except NumericError as exc:
            breakdowns += str(exc).startswith("frame breakdown")
            continue
        for x in (fr.u, fr.psi, fr.v, fr.defect):
            assert np.all(np.isfinite(x))
    assert breakdowns >= 190
    with pytest.raises(NumericError, match="^frame breakdown"):
        canonical_frame(ev, [0.3, -0.2, 0.5, 1.1])


def test_a_non_finite_gap_counts_as_a_collision():
    for u in ([0, np.nan, 1], [0, 1, np.inf], [np.nan, np.nan]):
        with pytest.raises(SemisimplicityError, match="collide"):
            _require_separated(np.array(u, dtype=complex), 1e-6)
    _require_separated(np.array([0, 1, 2], dtype=complex), 1e-6)
