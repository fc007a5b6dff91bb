"""Two-point descendent coefficients, hierarchy flow matrices, and the
restricted genus-1 value.

The generating matrix

    Omega(z, w) = (z + w)^{-1} [ Phi^T(w) eta Phi(z) - eta ],
    Phi(z) = sum_p Theta_p z^p,

is divisible by (z + w) exactly because of the pairing identity
Phi^T(-z) eta Phi(z) = eta; its coefficients Omega_{a,p;b,q} are symmetric
under (a,p) <-> (b,q).  The numerator's z^p w^q coefficients are the deformed
series' pairing table N(p, q) = Theta_q^T eta Theta_p, so the division is
synthetic division on that table, one total degree at a time:

    Omega_{p,0} = N(p+1, 0),    Omega_{p,q} = N(p+1, q) - Omega_{p+1,q-1},

and the remainder checks N(0, 0) = eta and N(0, m) = Omega_{0,m-1} hold
exactly iff the division leaves nothing over.  The first-Hamiltonian-structure
flows are evolutionary systems d_T t = A(t) t_X whose matrices are the
derivatives of the Hamiltonian densities' raised gradients, column a of
Theta_{p+1}:

    A^g_e = eta^{gb} d_b d_e theta^(p+1)_a = d_e (Theta_{p+1})^g_a,

so (a,p) = (1,0) is the X-translation flow (density theta^(1)_1 = d_1 F with
Hessian eta) and (a,0) is multiplication by e_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import FMChart, Potential
from .deformed import DeformedFlatSeries, _require_label, deformed_flat_coordinates
from .errors import AlgebraError, NumericError
from .frames import _as_evaluator
from .isomonodromy import GValue, g_function
from .poly import MultiPoly


@dataclass
class DescendentTable:
    """Coefficients Omega_{a,p;b,q} for p + q <= order (1-based a, b)."""

    order: int
    blocks: dict[tuple[int, int], list[list[Potential]]]

    def omega(self, alpha: int, p: int, beta: int, q: int) -> Potential:
        if p < 0 or q < 0 or p + q > self.order:
            raise AlgebraError(f"order ({p},{q}) outside the table")
        n = len(self.blocks[(0, 0)])
        _require_label(alpha, n)
        _require_label(beta, n)
        return self.blocks[(p, q)][alpha - 1][beta - 1]


def omega_table(
    chart: FMChart, order: int, series: DeformedFlatSeries | None = None
) -> DescendentTable:
    """Exact division of Phi^T(w) eta Phi(z) - eta by (z + w), by synthetic
    division of the series' pairing table N.

    Needs the deformed flat series to order ``order``+1; failure of the
    division (checked exactly) signals broken pairing upstream."""
    if order < 0:
        raise AlgebraError(f"descendent table order must be >= 0, got {order}")
    if series is None:
        series = deformed_flat_coordinates(chart, order + 1)
    elif series.order < order + 1:
        raise AlgebraError("deformed flat series order too low for this table")
    N = series.pairings

    def require_equal(m: int, lhs, rhs) -> None:
        for a, (lhs_row, rhs_row) in enumerate(zip(lhs, rhs)):
            for b, (x, y) in enumerate(zip(lhs_row, rhs_row)):
                if x != y:
                    raise AlgebraError(
                        "(z+w)-division failed: pairing identity broken at "
                        f"order {m}, entry ({a + 1},{b + 1})"
                    )

    # the z^P w^Q coefficient of (z + w) Omega = N - eta is
    # Omega_{P-1,Q} + Omega_{P,Q-1}; at P = 0 it leaves N(0, 0) = eta and
    # N(0, m) = Omega_{0,m-1}, the remainder checks of the division
    require_equal(0, N[(0, 0)], chart.eta)
    blocks: dict[tuple[int, int], list[list[Potential]]] = {}
    for d in range(order + 1):
        blocks[(d, 0)] = [row[:] for row in N[(d + 1, 0)]]
        for q in range(1, d + 1):
            prev = blocks[(d - q + 1, q - 1)]
            blocks[(d - q, q)] = [
                [x - y for x, y in zip(row, prev_row)]
                for row, prev_row in zip(N[(d - q + 1, q)], prev)
            ]
        require_equal(d + 1, N[(0, d + 1)], blocks[(0, d)])
    return DescendentTable(order, blocks)


@dataclass
class HierarchyFlow:
    """Evolutionary flow d_T t^g = A^g_e(t) d_X t^e for the label (alpha, p)."""

    alpha: int
    p: int
    matrix: list[list[Potential]]


def hierarchy_flow(
    chart: FMChart, alpha: int, p: int, series: DeformedFlatSeries | None = None
) -> HierarchyFlow:
    """A^g_e = d_e (Theta_{p+1})^g_alpha, read off column alpha (1-based) of
    the series' Theta_{p+1}; built to order p + 1 when no series is given."""
    if not 1 <= alpha <= chart.n:
        raise AlgebraError("alpha out of range")
    if p < 0:
        raise AlgebraError("p must be >= 0")
    if series is None:
        series = deformed_flat_coordinates(chart, p + 1)
    elif series.order < p + 1:
        raise AlgebraError("deformed flat series order too low for this flow")
    column = [row[alpha - 1] for row in series.matrices[p + 1]]
    rows = [[entry.diff(e) for e in range(chart.n)] for entry in column]
    return HierarchyFlow(alpha, p, rows)


def _lift_jet(p, jet_arity: int):
    """Embed an n-variable polynomial into the jet ring (t, t_X, t_XX)."""
    out = {}
    for e, c in p.terms.items():
        out[tuple(e) + (0,) * (jet_arity - len(e))] = c
    return type(p)(jet_arity, out)


def flow_commutator_jets(
    fa: HierarchyFlow, fb: HierarchyFlow
) -> list:
    """Exact commutator of two evolutionary flows on second jets.

    For characteristics Q^g = A^g_e(t) t_X^e the bracket is
        [Q_a, Q_b]^g = DQ_b(Q_a)^g - DQ_a(Q_b)^g,
    with the Frechet derivative DQ(P) = (dQ/dt) P + (dQ/dt_X) D_X P and the
    total derivative D_X P = (dP/dt) t_X + (dP/dt_X) t_XX.  The result is a
    vector of polynomials in (t, t_X, t_XX); flows commute iff it vanishes
    identically.  Only polynomial charts are supported."""
    n = len(fa.matrix)
    if any(not isinstance(entry, MultiPoly) for row in fa.matrix for entry in row):
        raise AlgebraError("symbolic jet commutator needs polynomial flow matrices")
    jet = 3 * n  # variables: t (0..n-1), t_X (n..2n-1), t_XX (2n..3n-1)

    zero = MultiPoly.zero(jet)
    t_x = [zero.var_like(n + s) for s in range(n)]
    t_xx = [zero.var_like(2 * n + s) for s in range(n)]

    def characteristic(flow: HierarchyFlow) -> list[MultiPoly]:
        return [
            zero.dot((_lift_jet(flow.matrix[g][e], jet), t_x[e]) for e in range(n))
            for g in range(n)
        ]

    def total_x(p: MultiPoly) -> MultiPoly:
        return zero.dot(
            [(p.diff(s), t_x[s]) for s in range(n)] + [(p.diff(n + s), t_xx[s]) for s in range(n)]
        )

    def frechet(q: list[MultiPoly], p: list[MultiPoly]) -> list[MultiPoly]:
        dx_p = [total_x(pb) for pb in p]
        return [
            zero.dot(
                [(q[g].diff(b), p[b]) for b in range(n)]
                + [(q[g].diff(n + b), dx_p[b]) for b in range(n)]
            )
            for g in range(n)
        ]

    Qa, Qb = characteristic(fa), characteristic(fb)
    dba = frechet(Qb, Qa)
    dab = frechet(Qa, Qb)
    return [dba[g] - dab[g] for g in range(n)]


@dataclass
class Genus1Value:
    """G(t) + (1/24) log det M at one (point, velocity) pair, with
    M_{ab} = d_a d_b d_g F(t) tdot^g.  The G part is a difference from the
    supplied base point (the function itself is defined up to a constant)."""

    point: tuple[complex, ...]
    velocity: tuple[complex, ...]
    m_matrix: tuple[tuple[complex, ...], ...]
    g_value: GValue
    log_det_m: complex

    @property
    def value(self) -> complex:
        return self.g_value.delta_g + self.log_det_m / 24


def genus1_restricted(chart, t, tdot, base_point) -> Genus1Value:
    """Restricted genus-1 free energy at (t, tdot); its G part is the
    g_function difference from ``base_point`` at the default tolerance.
    ``chart`` is an FMChart or a ChartEvaluator.  Requires M nonsingular and
    t semisimple: g_function's frames raise SemisimplicityError otherwise."""
    ev = _as_evaluator(chart)
    tt = np.array([complex(x) for x in t], dtype=complex)
    td = np.array([complex(x) for x in tdot], dtype=complex)
    M = np.einsum("abg,g->ab", ev.third(tt), td)
    det = complex(np.linalg.det(M))
    if abs(det) < 1e-13:
        raise NumericError("velocity matrix M is singular at this point")
    gv = g_function(ev, base_point, tt)
    return Genus1Value(
        tuple(complex(x) for x in tt),
        tuple(complex(x) for x in td),
        tuple(tuple(complex(x) for x in row) for row in M),
        gv,
        complex(np.log(det)),
    )
