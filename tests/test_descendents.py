import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from frobforge.charts import FMChart, mu_matrix, structure_constants
from frobforge.deformed import deformed_flat_coordinates, pairing_holds
from frobforge.descendents import (
    flow_commutator_jets,
    genus1_restricted,
    hierarchy_flow,
    omega_table,
)
from frobforge.errors import AlgebraError, SemisimplicityError
from frobforge.frames import ChartEvaluator
from frobforge.linalg import frac_matrix
from frobforge.poly import MultiPoly
from frobforge.projective import build_p2_chart, pd_classical_data
from frobforge.unfolding import build_an_chart


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


def eta_only_chart():
    # zero potential: the table must vanish identically
    return FMChart(
        n=2,
        eta=frac_matrix([[0, 1], [1, 0]]),
        potential=MultiPoly.zero(2),
        euler_linear=frac_matrix([[1, 0], [0, 1]]),
        euler_const=(Fraction(0), Fraction(0)),
        charge_d=Fraction(0),
        unity_index=1,
    )


def test_lowest_block_is_the_hessian():
    for chart in (split_cubic(), build_an_chart(2)):
        table = omega_table(chart, 2)
        for a in (1, 2):
            for b in (1, 2):
                assert table.omega(a, 0, b, 0) == chart.potential.diff(a - 1).diff(b - 1)


def test_symmetry_of_table():
    chart = build_an_chart(3)
    series = deformed_flat_coordinates(chart, 4)
    table = omega_table(chart, 3, series)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for p in range(4):
                for q in range(4 - p):
                    assert table.omega(a, p, b, q) == table.omega(b, q, a, p)


def test_first_descendent_block_closed_form():
    # for constant multiplication the (p, 0) block is eta M^{p+1}/(p+1)!
    chart = split_cubic()
    table = omega_table(chart, 2)
    n = 2
    eta_inv = chart.eta_inv
    F = chart.potential
    M = [
        [
            sum(
                (F.diff(e).diff(b).scale(eta_inv[a][e]) for e in range(n)),
                MultiPoly.zero(n),
            )
            for b in range(n)
        ]
        for a in range(n)
    ]
    M2 = [
        [sum((M[i][k] * M[k][j] for k in range(n)), MultiPoly.zero(n)) for j in range(n)]
        for i in range(n)
    ]
    for a in range(n):
        for b in range(n):
            expect = sum(
                (M2[k][b].scale(Fraction(chart.eta[a][k], 2)) for k in range(n)),
                MultiPoly.zero(n),
            )
            assert table.omega(a + 1, 1, b + 1, 0) == expect
            assert table.omega(a + 1, 1, b + 1, 0).total_degree() <= 3


def test_eta_only_chart_table_vanishes():
    table = omega_table(eta_only_chart(), 3)
    for (p, q), block in table.blocks.items():
        for row in block:
            for entry in row:
                assert entry.is_zero()


def test_table_order_bounds():
    chart = split_cubic()
    table = omega_table(chart, 2)
    with pytest.raises(AlgebraError):
        table.omega(1, 2, 1, 1)
    for alpha, beta in ((0, 1), (1, 0), (-1, 1), (1, 3), (3, 2)):
        with pytest.raises(AlgebraError, match="outside 1..2"):
            table.omega(alpha, 0, beta, 0)
    assert table.omega(2, 0, 1, 1) == table.blocks[(0, 1)][1][0]


def test_table_rejects_a_negative_order():
    with pytest.raises(AlgebraError, match="order must be >= 0"):
        omega_table(split_cubic(), -1)


def eta_pairing(chart, A, B):
    """The matrix A^T eta B: entry (al, be) is one fused sum over the nonzero
    eta_{ij} of A[i][al] eta_{ij} B[j][be], with no gradient of the series."""
    n = chart.n
    eta = [(i, j, chart.eta[i][j]) for i in range(n) for j in range(n) if chart.eta[i][j]]
    return [
        [chart.potential.dot((A[i][al].scale(e), B[j][be]) for i, j, e in eta) for be in range(n)]
        for al in range(n)
    ]


def pairing_oracle(chart, matrices, order):
    """N(p, q) = Theta_q^T eta Theta_p for every ordered p + q <= order."""
    return {
        (p, q): eta_pairing(chart, matrices[q], matrices[p])
        for p in range(order + 1)
        for q in range(order + 1 - p)
    }


@pytest.mark.parametrize("build, order", [
    (lambda: build_an_chart(3), 4),
    (lambda: build_p2_chart(3), 4),
], ids=["A3", "P2@3"])
def test_table_blocks_are_alternating_pairing_sums(build, order):
    chart = build()
    series = deformed_flat_coordinates(chart, order + 1)
    N = pairing_oracle(chart, series.matrices, order + 1)
    assert series.pairings == N
    for (p, q), block in series.pairings.items():
        assert block == [list(col) for col in zip(*series.pairings[(q, p)])]
    table = omega_table(chart, order, series)
    zero = chart.potential.zero_like()
    for (p, q), block in table.blocks.items():
        for a, row in enumerate(block):
            for b, entry in enumerate(row):
                want = sum(
                    (N[(p + 1 + j, q - j)][a][b].scale((-1) ** j) for j in range(q + 1)), zero
                )
                assert entry == want


def test_tampered_series_fails_the_pairing_checks():
    # the negative control: t^1 added to (Theta_2)^1_2 breaks the pairing
    # identity from order 2 on, first at entry (2,3) of Theta_2^T eta + eta Theta_2
    chart = build_an_chart(3)
    series = deformed_flat_coordinates(chart, 5)
    matrices = [[row[:] for row in M] for M in series.matrices]
    matrices[2][0][1] = matrices[2][0][1] + chart.potential.var_like(0)
    broken = dataclasses.replace(
        series, matrices=matrices, pairings=pairing_oracle(chart, matrices, 5)
    )
    assert pairing_holds(chart, series, 4)
    assert not pairing_holds(chart, broken, 4)
    omega_table(chart, 3, series)
    with pytest.raises(AlgebraError, match=r"order 2, entry \(2,3\)"):
        omega_table(chart, 3, broken)


def matmul(zero, A, B):
    return [[zero.dot(zip(row, col)) for col in zip(*B)] for row in A]


def commutator(zero, A, B):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(matmul(zero, A, B), matmul(zero, B, A))]


def lift(zero, M):
    return [[zero.const_like(x) for x in row] for row in M]


def euler_multiplication(chart):
    """U^a_b = E^e c_{eb}^a, the operator of multiplication by the Euler field."""
    E = chart.euler_components()
    c = structure_constants(chart)
    zero = chart.potential.zero_like()
    n = chart.n
    return [[zero.dot((E[e], c[e][b][a]) for e in range(n)) for b in range(n)] for a in range(n)]


def levelt_residuals(chart, matrices, U):
    """R and the residuals of p Theta_p = U Theta_{p-1} + [mu, Theta_p] - Theta_{p-1} R.

    R is read off at p = 1, where Theta_0 = Id gives R = U + [mu, Theta_1] -
    Theta_1; ``residuals[p]`` is the right side minus the left for p >= 2."""
    zero = chart.potential.zero_like()
    mu = lift(zero, mu_matrix(chart))
    theta1 = matrices[1]
    R = [[u + b - t for u, b, t in zip(*rows)] for rows in zip(U, commutator(zero, mu, theta1), theta1)]
    residuals = {}
    for p in range(2, len(matrices)):
        prev, cur = matrices[p - 1], matrices[p]
        terms = zip(matmul(zero, U, prev), commutator(zero, mu, cur), matmul(zero, prev, R), cur)
        residuals[p] = [
            [u + b - r - t.scale(p) for u, b, r, t in zip(*rows)] for rows in terms
        ]
    return R, residuals


@pytest.mark.parametrize("build, want_r", [
    (lambda: build_an_chart(3), None),
    (lambda: build_an_chart(4), None),
    (lambda: build_p2_chart(5), pd_classical_data(2).r),
], ids=["A3", "A4", "P2@5"])
def test_levelt_identity_ties_theta_to_u_mu_and_r(build, want_r):
    chart = build()
    n = chart.n
    zero = chart.potential.zero_like()
    series = deformed_flat_coordinates(chart, 6)
    U = euler_multiplication(chart)
    R, residuals = levelt_residuals(chart, series.matrices, U)
    assert R == lift(zero, want_r or [[0] * n for _ in range(n)])
    assert commutator(zero, lift(zero, mu_matrix(chart)), R) == R
    assert sorted(residuals) == [2, 3, 4, 5, 6]
    assert all(x.is_zero() for block in residuals.values() for row in block for x in row)

    # controls: t^1 added to one entry of Theta_2, and U transposed
    matrices = [[row[:] for row in M] for M in series.matrices]
    matrices[2][0][1] = matrices[2][0][1] + zero.var_like(0)
    _, tampered = levelt_residuals(chart, matrices, U)
    assert any(not x.is_zero() for row in tampered[2] for x in row)
    R_t, transposed = levelt_residuals(chart, series.matrices, [list(col) for col in zip(*U)])
    assert not all(x.diff(g).is_zero() for row in R_t for x in row for g in range(n))
    assert any(not x.is_zero() for block in transposed.values() for row in block for x in row)


def test_translation_flow_is_identity():
    chart = build_an_chart(2)
    flow = hierarchy_flow(chart, 1, 0)
    for g in range(2):
        for e in range(2):
            assert flow.matrix[g][e] == MultiPoly.const(2, 1 if g == e else 0)


def test_primary_flows_are_multiplication():
    chart = build_an_chart(3)
    series = deformed_flat_coordinates(chart, 2)
    c = structure_constants(chart)
    for alpha in (1, 2, 3):
        flow = hierarchy_flow(chart, alpha, 0, series)
        for g in range(3):
            for e in range(3):
                assert flow.matrix[g][e] == c[alpha - 1][e][g]


def test_line_chart_first_descendent_flow():
    chart = FMChart(
        n=1,
        eta=frac_matrix([[1]]),
        potential=mk(1, {(3,): Fraction(1, 6)}),
        euler_linear=frac_matrix([[1]]),
        euler_const=(Fraction(0),),
        charge_d=Fraction(0),
    )
    flow = hierarchy_flow(chart, 1, 1)
    assert flow.matrix[0][0] == MultiPoly.variable(1, 0)


def test_flows_commute_symbolically_on_a2():
    chart = build_an_chart(2)
    series = deformed_flat_coordinates(chart, 3)
    f10 = hierarchy_flow(chart, 1, 0, series)
    f21 = hierarchy_flow(chart, 2, 1, series)
    f12 = hierarchy_flow(chart, 1, 2, series)
    for a, b in ((f10, f21), (f21, f12), (f10, f12)):
        comm = flow_commutator_jets(a, b)
        assert all(entry.is_zero() for entry in comm)
    # control: t2 added to any one entry of flow (2, 1) breaks commutation
    t2 = MultiPoly.variable(2, 1)
    for g in range(2):
        for e in range(2):
            matrix = [row[:] for row in f21.matrix]
            matrix[g][e] = matrix[g][e] + t2
            bad = dataclasses.replace(f21, matrix=matrix)
            comm = flow_commutator_jets(bad, f12)
            assert any(not entry.is_zero() for entry in comm), (g, e)


def test_genus1_unity_velocity_gives_eta_determinant():
    chart = build_an_chart(3)
    base = [0.3, 0.5, 1.2]
    val = genus1_restricted(chart, [0.2, 0.4, 1.1], [1, 0, 0], base_point=base)
    eta = np.array([[float(x) for x in row] for row in chart.eta])
    expect = np.log(complex(np.linalg.det(eta)))
    assert abs(val.log_det_m - expect) < 1e-12


def test_genus1_at_a_caustic_raises_semisimplicity_error():
    # at t = 0 all canonical coordinates of A3 coincide; M = eta is regular
    with pytest.raises(SemisimplicityError):
        genus1_restricted(build_an_chart(3), [0, 0, 0], [1, 0, 0], base_point=[0.3, 0.5, 1.2])


def test_genus1_line_chart_direct_substitution():
    chart = FMChart(
        n=1,
        eta=frac_matrix([[1]]),
        potential=mk(1, {(3,): Fraction(1, 6)}),
        euler_linear=frac_matrix([[1]]),
        euler_const=(Fraction(0),),
        charge_d=Fraction(0),
    )
    v = 0.8
    val = genus1_restricted(chart, [0.5], [v], base_point=[0.4])
    # third derivative of t^3/6 is 1, so M = (v)
    assert abs(val.log_det_m - np.log(v)) < 1e-12


def test_genus1_velocity_scaling_shift():
    chart = build_an_chart(3)
    base = [0.3, 0.5, 1.2]
    point = [0.2, 0.4, 1.1]
    tdot = [0.3, -0.7, 0.5]
    lam = 2.5
    v1 = genus1_restricted(chart, point, tdot, base_point=base)
    v2 = genus1_restricted(chart, point, [lam * x for x in tdot], base_point=base)
    assert abs((v2.value - v1.value) - 3 / 24 * np.log(lam)) < 1e-9


def test_genus1_accepts_an_evaluator():
    chart = build_an_chart(3)
    args = ([0.2, 0.4, 1.1], [0.3, -0.7, 0.5])
    base = [0.3, 0.5, 1.2]
    v1 = genus1_restricted(chart, *args, base_point=base)
    v2 = genus1_restricted(ChartEvaluator(chart), *args, base_point=base)
    assert v1.value == v2.value


def test_p2_flows_exist_through_low_orders():
    chart = build_p2_chart(2)
    series = deformed_flat_coordinates(chart, 3)
    flow = hierarchy_flow(chart, 1, 0, series)
    for g in range(3):
        for e in range(3):
            part = flow.matrix[g][e]
            expect = 1 if g == e else 0
            assert part.part(0) == MultiPoly.const(3, expect)
            assert all(part.part(k).is_zero() for k in part.marker_degrees() if k > 0)
