import dataclasses
import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from frobforge import isomonodromy
from frobforge.errors import NumericError, SemisimplicityError, ValidationError
from frobforge.frames import FRAME_TOL, ChartEvaluator, canonical_frames, match_ordering, vi_matrices
from frobforge.isomonodromy import (
    IsomonodromyState,
    _directional_flow,
    flow_rhs,
    g_function,
    hamiltonians,
    integrate,
    skew_from_upper,
    upper_of,
)
from frobforge.poly import MultiPoly
from frobforge.projective import build_p2_chart
from frobforge.unfolding import build_an_chart


def random_skew(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A - A.T) / 2


def test_state_representation_is_exactly_skew():
    V = np.array([[0.1, 0.5], [-0.3, 0.2]])  # deliberately not skew
    st = IsomonodromyState.from_matrix([0, 1], V)
    M = st.v_matrix
    assert M[0, 0] == 0 and M[1, 1] == 0
    assert M[1, 0] == -M[0, 1] == -0.5  # upper triangle is the truth


def test_hamiltonians_two_by_two():
    v = 0.4 + 0.2j
    st = IsomonodromyState.from_matrix([0.0, 2.0], [[0, v], [-v, 0]])
    H = hamiltonians(np.array(st.u), st.v_matrix)
    assert abs(H[0] - v**2 / (2 * (0 - 2))) < 1e-14
    assert abs(H[0] + H[1]) < 1e-14


def test_hamiltonians_sum_to_zero():
    st = IsomonodromyState.from_matrix([0, 1, 2 + 1j, -1j], random_skew(4, 1))
    assert abs(sum(hamiltonians(np.array(st.u), st.v_matrix))) < 1e-13


def test_hamiltonians_vanish_for_zero_v():
    st = IsomonodromyState.from_matrix([0, 1, 2], np.zeros((3, 3)))
    assert np.max(np.abs(hamiltonians(np.array(st.u), st.v_matrix))) == 0


def test_flow_rhs_two_by_two_abelian():
    st = IsomonodromyState.from_matrix([0.0, 1.0], [[0, 0.7], [-0.7, 0]])
    assert np.max(np.abs(flow_rhs(1, st))) < 1e-15


def test_flow_rhs_zero_v():
    st = IsomonodromyState.from_matrix([0, 1, 2], np.zeros((3, 3)))
    assert np.max(np.abs(flow_rhs(2, st))) == 0


def test_flow_rhs_single_entry_hand_oracle():
    # V supported on the (1,2) plane commutes with its own V_1 projection
    st = IsomonodromyState.from_matrix(
        [0.0, 1.0, 2.0], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    )
    rhs = flow_rhs(1, st)
    assert abs(rhs[0, 2]) < 1e-15
    assert abs(rhs[1, 2]) < 1e-15
    assert np.max(np.abs(rhs)) < 1e-15


def test_flow_matches_linear_poisson_bracket():
    # {V, H_i} with the so(n) bracket on independent upper entries,
    # computed coordinate by coordinate as the oracle
    n = 4
    u = np.array([0.0, 1.0, 2.5 + 0.5j, -1.0 + 1.0j])
    V = random_skew(n, 7)
    st = IsomonodromyState.from_matrix(u, V)

    def bracket_vv(i, j, k, l):
        d = lambda a, b: 1 if a == b else 0
        return (
            d(j, k) * V[i, l] - d(i, k) * V[j, l]
            - d(j, l) * V[i, k] + d(i, l) * V[j, k]
        )

    for direction in range(n):
        # dH/dV_kl over independent coordinates k < l
        def dh(k, l):
            out = 0
            if k == direction:
                out += V[k, l] / (u[direction] - u[l])
            if l == direction:
                out += V[k, l] / (u[direction] - u[k])
            return out

        oracle = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                acc = 0
                for k in range(n):
                    for l in range(k + 1, n):
                        acc += dh(k, l) * bracket_vv(a, b, k, l)
                oracle[a, b] = acc
        rhs = flow_rhs(direction + 1, st)
        assert np.max(np.abs(rhs - oracle)) < 1e-12


def test_directional_flow_matches_the_sum_of_directional_flows():
    # the closed form against sum_i du_i [V_i, V] with the V_i of vi_matrices
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        for seed in range(4):
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            du = rng.normal(size=n) + 1j * rng.normal(size=n)
            st = IsomonodromyState.from_matrix(u, random_skew(n, 100 * n + seed))
            V = st.v_matrix
            dV, dtau = _directional_flow(np.array(st.u), V, du)
            ref = sum(d * (Vi @ V - V @ Vi) for d, Vi in zip(du, vi_matrices(st.u, V)))
            assert np.max(np.abs(dV - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
            assert abs(dtau - np.dot(hamiltonians(np.array(st.u), V), du)) < 1e-12


def test_directional_flow_is_exactly_skew():
    rng = np.random.default_rng(38)
    for k in range(250):
        n = 3 + k % 5
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        du = rng.normal(size=n) + 1j * rng.normal(size=n)
        dV, _ = _directional_flow(u, random_skew(n, 1000 + k), du)
        assert np.array_equal(dV, -dV.T)


def test_flow_rhs_rejects_a_bad_direction_and_close_coordinates():
    st = IsomonodromyState.from_matrix([0.0, 1.0, 2.0], random_skew(3, 2))
    for i in (0, 4, 1.5):
        with pytest.raises(ValidationError, match="an integer in 1..3"):
            flow_rhs(i, st)
    close = IsomonodromyState.from_matrix([0.0, 1.0, 1.0 + 1e-13], random_skew(3, 2))
    with pytest.raises(SemisimplicityError, match="u_2 - u_3"):
        flow_rhs(1, close)


def test_integrate_constant_v_closed_form():
    v = 0.3 + 0.1j
    st = IsomonodromyState.from_matrix([0.0, 1.0], [[0, v], [-v, 0]])
    traj = integrate(st, [[0.5, 3.0]], tol=1e-11)
    expected = (v**2 / 2) * np.log((0.5 - 3.0) / (0.0 - 1.0))
    assert abs(traj.log_tau - expected) < 1e-9
    assert np.max(np.abs(traj.final_state.v_matrix - st.v_matrix)) < 1e-12


def test_integrate_closed_loop_returns():
    st = IsomonodromyState.from_matrix([0, 1, 2 + 1j], random_skew(3, 3))
    loop = [
        [0.4, 1.0, 2 + 1j],
        [0.4, 1.6, 2 + 1j],
        [0.0, 1.6, 2 + 1j],
        [0.0, 1.0, 2 + 1j],
    ]
    traj = integrate(st, loop, tol=1e-9)
    assert abs(traj.log_tau) < 1e-6
    assert np.max(np.abs(traj.final_state.v_matrix - st.v_matrix)) < 1e-6


def test_integrate_translation_leaves_v_fixed():
    st = IsomonodromyState.from_matrix([0, 1, 2 + 1j], random_skew(3, 5))
    traj = integrate(st, [[0.7, 1.7, 2.7 + 1j]], tol=1e-10)
    assert np.max(np.abs(traj.final_state.v_matrix - st.v_matrix)) < 1e-12
    assert abs(traj.log_tau) < 1e-12


def test_integrate_zero_v_stays_zero():
    st = IsomonodromyState.from_matrix([0, 1, 2], np.zeros((3, 3)))
    traj = integrate(st, [[0.3, 1.4, 2.2], [0.1, 0.8, 2.6]], tol=1e-10)
    assert np.max(np.abs(traj.final_state.v_matrix)) == 0
    assert traj.log_tau == 0


def test_integrate_isospectral():
    V0 = random_skew(3, 11)
    st = IsomonodromyState.from_matrix([0, 1, 2 + 1j], V0)
    traj = integrate(
        st, [[0.2, 1.3, 1.9 + 0.8j], [0.4, 0.9, 2.2 + 1.1j]], tol=1e-10
    )
    e0 = sorted(np.linalg.eigvals(V0), key=lambda z: (round(z.real, 6), z.imag))
    e1 = sorted(
        np.linalg.eigvals(traj.final_state.v_matrix),
        key=lambda z: (round(z.real, 6), z.imag),
    )
    assert max(abs(a - b) for a, b in zip(e0, e1)) < 1e-8


def test_integrate_rejects_caustic_paths():
    st = IsomonodromyState.from_matrix([0.0, 1.0], [[0, 0.3], [-0.3, 0]])
    with pytest.raises(SemisimplicityError):
        integrate(st, [[1.0, 1.0]], tol=1e-9)


def test_integrate_takes_a_short_first_leg():
    # a first waypoint close to, but not equal to, u0 is a leg of its own
    u0 = np.array([0.0, 1.0, 2 + 1j])
    w = u0 + np.array([0.0, 0.0, 2e-5])
    st = IsomonodromyState.from_matrix(u0, random_skew(3, 4))
    alone, after_u0 = integrate(st, [w], tol=1e-12), integrate(st, [u0, w], tol=1e-12)
    assert alone.steps > 0
    assert np.array_equal(alone.final_state.u, w)
    assert abs(alone.log_tau) > 1e-8
    assert alone.log_tau == after_u0.log_tau
    assert alone.final_state == after_u0.final_state


# (tol, G end point, integrate waypoint, message): a bad tolerance, then
# malformed points, each rejected as ValidationError before numpy sees it
_BAD_INPUTS = [
    *(pytest.param(tol, [0.9, 0.4, 1.1], [0.5, 1, 2 + 1j], "tol must be finite and > 0", id=str(tol))
      for tol in (-1.0, 0.0, float("nan"), float("inf"))),
    pytest.param(1e-9, [0.5, 0.1], [0.5, 1], "must have 3 finite components", id="short-point"),
    pytest.param(1e-9, [0.5, 0.1, 1.4, 2], [0.5, 1, 2 + 1j, 4], "must have 3 finite components",
                 id="long-point"),
    pytest.param(1e-9, [0.5, float("inf"), 1.4], [0.5, 1, float("nan")],
                 "must have 3 finite components", id="non-finite-point"),
    pytest.param(1e-9, [0.5, "x", 1.4], [0.5, None, 1], "must be a sequence of numbers",
                 id="non-numeric-point"),
]


@pytest.mark.parametrize("tol, t1, waypoint, message", _BAD_INPUTS)
def test_bad_tolerance_is_rejected_before_any_frame_or_step(monkeypatch, tol, t1, waypoint, message):
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame was computed")

    monkeypatch.setattr(isomonodromy, "canonical_frames", no_frames)
    monkeypatch.setattr(isomonodromy, "_directional_flow", no_frames)
    st = IsomonodromyState.from_matrix([0, 1, 2 + 1j], random_skew(3, 5))
    with pytest.raises(ValidationError, match=message):
        integrate(st, [waypoint], tol=tol)
    with pytest.raises(ValidationError, match=message):
        g_function(build_an_chart(3), [0.2, 0.4, 1.1], t1, tol=tol)


def test_upper_roundtrip():
    V = random_skew(4, 13)
    assert np.max(np.abs(skew_from_upper(4, upper_of(V)) - V)) == 0


def test_g_function_zero_segment():
    chart = build_an_chart(3)
    gv = g_function(chart, [0.2, 0.4, 1.1], [0.2, 0.4, 1.1], tol=1e-9)
    assert abs(gv.delta_g) < 1e-12


def test_g_value_reports_its_diagnostics():
    # one Gauss-Kronrod panel settles this segment: its 15 nodes plus the two
    # end frames, which also carry the log J tracking
    ev = ChartEvaluator(build_an_chart(3))
    gv = g_function(ev, [0.2, 0.4, 1.1], [0.5, 0.1, 1.4], tol=1e-9)
    assert (gv.panels, gv.frames) == (1, 17)
    assert 0 < gv.error <= 1e-9 / 4
    assert 0 < gv.max_defect < 1e-10


def _rule_miss(nodes, weights, degree):
    """Largest |sum_i w_i x_i^k - int_{-1}^1 x^k dx| over k = 0..degree."""
    k = np.arange(degree + 1)
    exact = np.where(k % 2 == 0, 2 / (k + 1), 0.0)
    return np.abs(nodes ** k[:, None] @ weights - exact).max()


def test_gauss_kronrod_table():
    # K15 integrates polynomials of degree <= 22 exactly and its G7 part those
    # of degree <= 13; the Gauss part is numpy's 7-point Gauss-Legendre rule
    nodes, (k15, g7) = isomonodromy._GK_NODES, isomonodromy._GK_WEIGHTS
    assert _rule_miss(nodes, k15, 22) < 5e-16
    assert _rule_miss(nodes, g7, 13) < 5e-16
    assert abs(k15.sum() - 2) < 5e-16 and abs(g7.sum() - 2) < 5e-16
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert np.abs(nodes[g7 != 0] - gauss_nodes).max() < 1e-15
    assert np.abs(g7[g7 != 0] - gauss_weights).max() < 1e-15
    # control: one weight off in its 15th decimal place misses
    bent = k15.copy()
    bent[3] += 1e-15
    assert _rule_miss(nodes, bent, 22) >= 5e-16
    # and neither rule is exact one even degree further
    assert _rule_miss(nodes, k15, 24) > 1e-9 and _rule_miss(nodes, g7, 14) > 1e-5


def test_g_function_unity_invariance():
    chart = build_an_chart(3)
    ev = ChartEvaluator(chart)
    gv = g_function(ev, [0.2, 0.4, 1.1], [0.9, 0.4, 1.1], tol=1e-9)
    assert abs(gv.delta_g) < 1e-10
    # tau and J move individually, they just cancel in G
    assert abs(gv.d_log_j) < 1e-10


def test_g_function_scaling_direction_constant():
    # along the scaling flow the G-increment per unit flow time is the same
    # at different base points
    chart = build_an_chart(3)
    ev = ChartEvaluator(chart)
    lam = 0.3
    weights = [1.0, 0.75, 0.5]
    vals = []
    for base in ([0.3, 0.5, 1.2], [0.45, 0.28, 0.9]):
        base = np.array(base)
        target = np.array([np.exp(w * lam) for w in weights]) * base
        vals.append(g_function(ev, base, target, tol=1e-10).delta_g / lam)
    assert abs(vals[0] - vals[1]) < 1e-8


def test_chart_frames_solve_the_free_flow():
    # strongest cross-check: V read off the chart's frames is a solution of
    # the flow system, so free integration from one frame's (u, V) along a
    # straight u-segment must land on the other frame's V (modulo the
    # square-root sign gauge), with matching tau increments from the two
    # completely independent routes
    from frobforge.frames import canonical_frame, match_ordering

    chart = build_an_chart(3)
    ev = ChartEvaluator(chart)
    t0, t1 = [0.2, 0.4, 1.1], [0.5, 0.1, 1.4]
    fr0 = canonical_frame(ev, t0)
    fr1 = canonical_frame(ev, t1)
    p = list(match_ordering(fr0.u, fr1.u))
    u1, v1 = fr1.u[p], fr1.v[np.ix_(p, p)]
    st = IsomonodromyState.from_matrix(fr0.u, fr0.v)
    traj = integrate(st, [u1], tol=1e-12)
    V_ode = traj.final_state.v_matrix
    best = min(
        np.max(np.abs(np.diag(signs) @ v1 @ np.diag(signs) - V_ode))
        for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
    )
    assert best < 1e-9
    gv = g_function(ev, t0, t1, tol=1e-12)
    assert abs(traj.log_tau - gv.d_log_tau) < 1e-10


def _miss_modulo_signs(V, V1):
    """min over sign diagonals D of max |V - D V1 D|."""
    n = len(V)
    return min(
        np.max(np.abs(V - np.diag(d) @ V1 @ np.diag(d)))
        for d in ((1, *rest) for rest in itertools.product((1, -1), repeat=n - 1))
    )


@pytest.mark.parametrize("chart, centre", [
    (build_an_chart(4), [0.8] * 4), (build_an_chart(6), [0.8] * 6), (build_p2_chart(12), [0.3, -2.0, 0.5]),
], ids=["A4", "A6", "P2@12"])
def test_integrate_follows_the_chart(chart, centre):
    # free integration from the frame at t0 through the u's of frames along
    # the t-segment, labels continued by nearest neighbour, must land on the
    # frame at t1 (modulo the sign gauge) with the tau increment of G's
    # quadrature; a 1e-3 change of V0 must miss both
    ev = ChartEvaluator(chart)
    rng = np.random.default_rng(18)
    for _ in range(4):
        t0 = np.asarray(centre) + 0.3 * rng.normal(size=ev.n) + 0.2j * rng.normal(size=ev.n)
        t1 = t0 + 0.1 * (rng.normal(size=ev.n) + 1j * rng.normal(size=ev.n))
        frames = canonical_frames(ev, t0 + np.linspace(0, 1, 17)[:, None] * (t1 - t0))
        path, p = [frames.u[0]], list(range(ev.n))
        for u in frames.u[1:]:
            p = list(match_ordering(path[-1], u))
            path.append(u[p])
        v1 = frames.v[-1][np.ix_(p, p)]
        d_log_tau = g_function(ev, t0, t1, tol=1e-12).d_log_tau
        v0 = frames.v[0]
        bent = v0.copy()
        bent[0, 1] += 1e-3
        bent[1, 0] -= 1e-3
        for start, hits in ((v0, True), (bent, False)):
            traj = integrate(IsomonodromyState.from_matrix(path[0], start), path[1:], tol=1e-12)
            v_miss = _miss_modulo_signs(traj.final_state.v_matrix, v1)
            tau_miss = abs(traj.log_tau - d_log_tau)
            if hits:
                assert v_miss < 1e-10 and tau_miss < 1e-10
            else:
                assert v_miss > 1e-7 and tau_miss > 1e-7


def test_g_function_scaling_constant_on_quantum_chart():
    # On any chart the scaling derivative of G has the closed form
    #   -tr(mu^2)/4 - (sum of Euler weights - n)/24,
    # since V is isospectral to mu (giving sum_i H_i u_i = -tr(V^2)/4) and J
    # scales with total weight sum(w) - n.  For the three-dimensional
    # projective chart this is -1/2 + 3/24 = -3/8, measured here in the
    # marker-suppressed region where the truncation is converged far below
    # the quadrature tolerance.
    from frobforge.projective import build_p2_chart

    chart = build_p2_chart(4)
    ev = ChartEvaluator(chart)
    lam = 0.2
    rng = np.random.default_rng(3)
    for _ in range(3):
        b = np.array([0.2, -1.0, 0.35]) + np.array([0.1, 0.3, 0.05]) * rng.standard_normal(3) \
            + 1j * np.array([0.05, 0.1, 0.02]) * rng.standard_normal(3)
        tg = np.array([np.exp(lam) * b[0], b[1] + 3 * lam, np.exp(-lam) * b[2]])
        gv = g_function(ev, b, tg, tol=1e-10)
        assert abs(gv.delta_g / lam - (-0.375)) < 1e-7


def test_frame_quality_gate_on_truncated_chart():
    # far outside the converged region the truncated multiplication stops
    # being associative to working accuracy and the frame builder says so
    from frobforge.errors import NumericError
    from frobforge.projective import build_p2_chart

    chart = build_p2_chart(4)
    ev = ChartEvaluator(chart)
    with pytest.raises(NumericError):
        g_function(ev, [0.2, 0.3, 1.1], [0.25, 0.35, 1.15], tol=1e-10)


def test_g_function_across_eigenvalue_order_change():
    # along this segment the (Re, Im)-sorted labels of two canonical
    # coordinates swap while all separations stay > 0.25; the Jacobian
    # branch tracking must ride through the relabeling
    chart = build_an_chart(3)
    ev = ChartEvaluator(chart)
    t0 = [-0.8168850350614076 + 0.290665609636998j,
          -0.9425772706148425 + 0.654964200441792j,
          1.9322819045737911 + 0.36294475046958435j]
    t1 = [-0.4146348010327339 + 0.0644474783036758j,
          0.7711634728873641 - 0.24596199677156497j,
          1.3770365585621986 + 0.0008340665421671866j]
    direct = g_function(ev, t0, t1, tol=1e-10)
    mid = [a + 0.503 * (b - a) for a, b in zip(t0, t1)]
    two_leg = (
        g_function(ev, t0, mid, tol=1e-10).delta_g
        + g_function(ev, mid, t1, tol=1e-10).delta_g
    )
    assert abs(direct.delta_g - two_leg) < 1e-7
    assert abs(direct.delta_g) < 1e-8  # G is constant on these charts


def test_g_function_path_independence():
    chart = build_an_chart(3)
    ev = ChartEvaluator(chart)
    a, b, mid = [0.2, 0.4, 1.1], [0.5, 0.1, 1.4], [0.45, 0.35, 1.05]
    direct = g_function(ev, a, b, tol=1e-10).delta_g
    two_leg = (
        g_function(ev, a, mid, tol=1e-10).delta_g
        + g_function(ev, mid, b, tol=1e-10).delta_g
    )
    assert abs(direct - two_leg) < 1e-6


def test_g_function_rejects_a_jump_in_log_j(monkeypatch):
    # control: doubling one idempotent row of the t1 end frame quadruples J^2
    # in the last tracking step, which fails the ratio guard however finely
    # the last panel is cut
    t0, t1 = [0.2, 0.4, 1.1], [0.5, 0.1, 1.4]
    real = isomonodromy.canonical_frames

    def doubled_at_t1(ev, T):
        frs = real(ev, T)
        frs.idempotents = frs.idempotents.copy()
        frs.idempotents[np.all(np.isclose(T, t1), axis=1), 0] *= 2
        return frs

    monkeypatch.setattr(isomonodromy, "canonical_frames", doubled_at_t1)
    monkeypatch.setattr(isomonodromy, "MIN_WIDTH", 2.0**-4)
    with pytest.raises(NumericError, match="log J"):
        g_function(ChartEvaluator(build_an_chart(3)), t0, t1, tol=1e-9)


def test_g_function_rejects_an_unreachable_tolerance(monkeypatch):
    # control: no panel of width >= 1/2 meets tol 1e-300, so the error test
    # asks for a split below MIN_WIDTH
    monkeypatch.setattr(isomonodromy, "MIN_WIDTH", 0.5)
    with pytest.raises(NumericError, match="tau quadrature did not converge"):
        g_function(ChartEvaluator(build_an_chart(3)), [0.2, 0.4, 1.1], [0.5, 0.1, 1.4], tol=1e-300)


def _misses_with_one_over_25(gv, expected):
    # the same increments with 1/25 in place of 1/24 must miss the closed form
    return abs(gv.d_log_tau - gv.d_log_j / 25 - expected) > 1e-4


@pytest.mark.parametrize("n", [3, 5, 7])
def test_g_function_vanishes_on_an_charts(n):
    # on the A_n unfolding charts G is constant: Delta log tau = Delta log J / 24
    # between arbitrary complex points, while log tau itself moves
    ev = ChartEvaluator(build_an_chart(n))
    rng = np.random.default_rng(n)
    for _ in range(3):
        t0, t1 = (0.8 + 0.3 * rng.standard_normal(n) + 0.2j * rng.standard_normal(n)
                  for _ in range(2))
        gv = g_function(ev, t0, t1, tol=1e-10)
        assert abs(gv.d_log_tau) >= 1e-2
        assert abs(gv.delta_g) < 1e-10
        assert _misses_with_one_over_25(gv, 0)


def test_g_function_of_the_projective_line():
    # QH(P^1): F = t1^2 t2 / 2 + e^{t2}, eta antidiagonal, E = t1 d_1 + 2 d_2,
    # d = 1, whose G-function is G = -t2 / 24
    from frobforge.charts import FMChart
    from frobforge.linalg import frac_matrix
    from frobforge.poly import MultiPoly
    from frobforge.series import ExpSeries

    potential = ExpSeries(2, 1, 3, {
        0: MultiPoly.monomial(2, (2, 1), Fraction(1, 2)),
        1: MultiPoly.const(2, 1),
    })
    chart = FMChart(
        n=2,
        eta=frac_matrix([[0, 1], [1, 0]]),
        potential=potential,
        euler_linear=frac_matrix([[1, 0], [0, 0]]),
        euler_const=(Fraction(0), Fraction(2)),
        charge_d=Fraction(1),
    )
    ev = ChartEvaluator(chart)
    rng = np.random.default_rng(1)
    for _ in range(4):
        t0, t1 = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        gv = g_function(ev, t0, t1, tol=1e-10)
        expected = -(t1[1] - t0[1]) / 24
        assert abs(gv.d_log_j) >= 0.1
        assert abs(gv.delta_g - expected) < 1e-10
        assert _misses_with_one_over_25(gv, expected)


def test_g_function_counts_the_genus_one_invariants_of_the_plane():
    # QH(P^2): G = -t2/8 + sum_d N1_d e^{d t2} t3^{3d} / (3d)! (Getzler,
    # alg-geom/9612004).  At t2 = -3 on the circle t3 = 2.4 e^{i theta} the
    # Cauchy sums of Delta G from (0, -3, 0) over 48 angles return N1_d for
    # d <= 5; with 1/25 in place of 1/24 they miss from d = 3 on
    ev = ChartEvaluator(build_p2_chart(12))
    radius, angles = 2.4, 48
    theta = 2 * np.pi * np.arange(angles) / angles
    gvs = [g_function(ev, [0, -3, 0], [0, -3, radius * np.exp(1j * th)]) for th in theta]

    def counts(over):
        dg = np.array([gv.d_log_tau - gv.d_log_j / over for gv in gvs])
        return np.array([
            np.mean(dg * np.exp(-3j * d * theta)) * factorial(3 * d) / (np.exp(-3 * d) * radius ** (3 * d))
            for d in range(1, 6)
        ])

    genus_one = np.array([0, 0, 1, 225, 87192])
    assert np.abs(counts(24) - genus_one).max() < 1e-3
    assert (np.abs(counts(25) - genus_one)[2:] > 1e-3).all()


def test_g_function_rejects_a_caustic_end_point_before_quadrature(monkeypatch):
    # u_2 = u_3 exactly at t1 = (0, 0, -1) on A3: the end frames are read
    # before any quadrature node, so the call fails after at most two points
    points = []
    real = isomonodromy.canonical_frames

    def counting(ev, T):
        points.extend(T)
        return real(ev, T)

    monkeypatch.setattr(isomonodromy, "canonical_frames", counting)
    with pytest.raises(NumericError):
        g_function(build_an_chart(3), [0.2, 0.4, 1.1], [0, 0, -1])
    assert 1 <= len(points) <= 2


# Seeded segments with (panels, frames) of the panel rule, and the Delta G and
# Delta log tau taken from an independent quadrature: doubling Gauss-Legendre
# levels with one frame read per call.
G_GOLDEN = {
    "P2@8": [
        ([0.3 - 0.178j, -1.91 - 0.091j, 0.418 - 0.198j],
         [0.306 - 0.24j, -1.776 - 0.042j, 0.369 - 0.163j],
         1, 17, -0.016749999999006192 - 0.006125000005263028j,
         -0.022335989844982918 - 0.008178403072673453j),
        ([0.332 + 0.139j, -2.279 - 0.269j, 0.491 - 0.092j],
         [0.142 + 0.116j, -2.408 - 0.396j, 0.307 - 0.064j],
         1, 17, 0.016125000004453476 + 0.015875000003539103j,
         0.021522200228658472 + 0.02114496879758568j),
        ([0.347 - 0.108j, -2.056 - 0.01j, -0.255 + 0.023j],
         [0.194 - 0.189j, -2.104 + 0.096j, -0.353 - 0.058j],
         1, 17, 0.006000000000105219 - 0.013250000000491697j,
         0.008007999162973444 - 0.017655332945314826j),
    ],
    "A5": [
        ([0.8 - 0.149j, 0.89 + 0.009j, 0.718 + 0.201j, 0.533 - 0.074j, 0.664 - 0.093j],
         [0.849 - 0.079j, 0.925 - 0.125j, 0.728 + 0.155j, 0.44 - 0.264j, 0.661 - 0.222j],
         1, 17, 1.240327285323417e-16 - 3.469446951953614e-17j,
         -0.001896777735478324 + 0.012334375794580561j),
        ([0.673 + 0.04j, 0.917 - 0.033j, 0.703 + 0.163j, 1.127 + 0.067j, 0.482 + 0.765j],
         [1.572 + 0.36j, 1.815 - 1.4j, -0.521 + 0.868j, 0.923 + 0.707j, 0.117 - 0.016j],
         10, 287, 1.5265566588595902e-16 + 1.3877787807814457e-16j,
         -0.06691200272478137 + 0.06739139659351044j),
        ([0.144 - 0.274j, 0.825 + 0.213j, 0.414 + 0.347j, 1.103 - 0.647j, -0.014 - 0.149j],
         [0.341 - 0.903j, 0.459 + 1.057j, 1.368 + 0.334j, 0.388 - 0.87j, 0.199 - 1.18j],
         14, 407, 2.6194324487249787e-16 - 1.2073675392798577e-15j,
         0.003975806620882957 - 0.07545675136636894j),
    ],
}


@pytest.mark.parametrize("name", sorted(G_GOLDEN))
def test_g_function_reproduces_its_golden_segments(name):
    ev = ChartEvaluator(build_p2_chart(8) if name == "P2@8" else build_an_chart(5))
    for t0, t1, panels, frames, delta_g, d_log_tau in G_GOLDEN[name]:
        gv = g_function(ev, t0, t1, tol=1e-9)
        assert (gv.panels, gv.frames) == (panels, frames)
        assert abs(gv.delta_g - delta_g) <= 1e-12
        assert abs(gv.d_log_tau - d_log_tau) <= 1e-12
        assert gv.max_defect < FRAME_TOL


def test_g_function_reads_a_round_in_chunks(monkeypatch):
    # the hardest golden A5 segment reads rounds of up to 60 nodes; stacks
    # of at most 7 points must give the same G
    t0, t1, panels, frames, delta_g, _ = G_GOLDEN["A5"][2]
    ev = ChartEvaluator(build_an_chart(5))
    whole = g_function(ev, t0, t1, tol=1e-9)
    monkeypatch.setattr(isomonodromy, "STACK_CHUNK", 7)
    chunked = g_function(ev, t0, t1, tol=1e-9)
    assert (chunked.panels, chunked.frames) == (whole.panels, whole.frames) == (panels, frames)
    assert abs(chunked.delta_g - whole.delta_g) < 1e-14


def test_g_function_names_a_frame_breakdown_on_a_non_associative_chart():
    # A4 + (1/3) t2 t3^2 t4^3: the frames at the ends are non-finite, which
    # once surfaced as "tau quadrature did not converge"
    a4 = build_an_chart(4)
    bad = dataclasses.replace(
        a4, potential=a4.potential + MultiPoly.monomial(4, (0, 1, 2, 3), Fraction(1, 3))
    )
    with pytest.raises(NumericError, match="^frame breakdown"):
        g_function(bad, [0.3, -0.2, 0.5, 1.1], [0.4, -0.2, 0.5, 1.1])


def test_hamiltonians_broadcast_over_a_stack():
    rng = np.random.default_rng(6)
    U = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    V = np.array([random_skew(4, seed) for seed in range(5)])
    H = hamiltonians(U, V)
    assert H.shape == (5, 4)
    for k in range(5):
        assert np.max(np.abs(H[k] - hamiltonians(U[k], V[k]))) == 0
