"""Two-point descendent coefficients, hierarchy flow matrices, and the
restricted genus-1 value.

The generating matrix

    Omega(z, w) = (z + w)^{-1} [ Phi^T(w) eta Phi(z) - eta ],
    Phi(z) = sum_p Theta_p z^p,

is divisible by (z + w) exactly because of the pairing identity
Phi^T(-z) eta Phi(z) = eta; its coefficients Omega_{a,p;b,q} are symmetric
under (a,p) <-> (b,q).  The first-Hamiltonian-structure flows are evolutionary
systems d_T t = A(t) t_X whose matrices come from the Hamiltonian densities
theta^(p+1)_a:

    A^g_e = eta^{gb} d_b d_e theta^(p+1)_a,

so (a,p) = (1,0) is the X-translation flow (density theta^(1)_1 = d_1 F with
Hessian eta) and (a,0) is multiplication by e_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import FMChart, Potential
from .deformed import DeformedFlatSeries, deformed_flat_coordinates, eta_pairing
from .errors import AlgebraError, NumericError
from .frames import ChartEvaluator, canonical_coordinates
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
        return self.blocks[(p, q)][alpha - 1][beta - 1]


def omega_table(
    chart: FMChart, order: int, series: DeformedFlatSeries | None = None
) -> DescendentTable:
    """Exact division of Phi^T(w) eta Phi(z) - eta by (z + w).

    Needs the deformed flat series to order ``order``+1; failure of the
    division (checked exactly) signals broken pairing upstream."""
    n = chart.n
    if series is None:
        series = deformed_flat_coordinates(chart, order + 1)
    elif series.order < order + 1:
        raise AlgebraError("deformed flat series order too low for this table")
    zero = chart.potential.zero_like()

    def n_block(p: int, q: int) -> list[list[Potential]]:
        # coefficient of z^p w^q in Phi^T(w) eta Phi(z) - eta
        out = eta_pairing(chart, series.matrices[q], series.matrices[p])
        if p == 0 and q == 0:
            for a in range(n):
                for b in range(n):
                    out[a][b] = out[a][b] - chart.potential.const_like(chart.eta[a][b])
        return out

    cache: dict[tuple[int, int], list[list[Potential]]] = {}

    def n_of(p: int, q: int):
        if (p, q) not in cache:
            cache[(p, q)] = n_block(p, q)
        return cache[(p, q)]

    # divisibility: the alternating diagonal sums of N must vanish
    for m in range(order + 2):
        for a in range(n):
            for b in range(n):
                acc = zero
                for p in range(m + 1):
                    q = m - p
                    entry = n_of(p, q)[a][b]
                    acc = acc + (entry if q % 2 == 0 else -entry)
                if not acc.is_zero():
                    raise AlgebraError(
                        "(z+w)-division failed: pairing identity broken at "
                        f"order {m}, entry ({a + 1},{b + 1})"
                    )

    blocks: dict[tuple[int, int], list[list[Potential]]] = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            out = [[zero for _ in range(n)] for _ in range(n)]
            for j in range(q + 1):
                blockN = n_of(p + 1 + j, q - j)
                for a in range(n):
                    for b in range(n):
                        entry = blockN[a][b]
                        out[a][b] = out[a][b] + (entry if j % 2 == 0 else -entry)
            blocks[(p, q)] = out
    return DescendentTable(order, blocks)


@dataclass
class HierarchyFlow:
    """Evolutionary flow d_T t^g = A^g_e(t) d_X t^e for the label (alpha, p)."""

    alpha: int
    p: int
    matrix: list[list[Potential]]

    def apply(self, t, t_x) -> np.ndarray:
        n = len(self.matrix)
        tt = np.asarray(t, dtype=complex)
        tx = np.asarray(t_x, dtype=complex)
        A = np.array(
            [[complex(self.matrix[g][e].evaluate(list(tt))) for e in range(n)]
             for g in range(n)]
        )
        return A @ tx


def hierarchy_flow(
    chart: FMChart, alpha: int, p: int, series: DeformedFlatSeries | None = None
) -> HierarchyFlow:
    """A^g_e = eta^{gb} d_b d_e theta^(p+1)_alpha (1-based alpha)."""
    if not 1 <= alpha <= chart.n:
        raise AlgebraError("alpha out of range")
    if p < 0:
        raise AlgebraError("p must be >= 0")
    if series is None:
        series = deformed_flat_coordinates(chart, p + 1)
    elif series.order < p + 1:
        raise AlgebraError("deformed flat series order too low for this flow")
    n = chart.n
    eta_inv = chart.eta_inv
    density = series.theta(p + 1, alpha)
    grads = [density.diff(b) for b in range(n)]
    rows = []
    for g in range(n):
        row = []
        for e in range(n):
            acc = chart.potential.zero_like()
            for b in range(n):
                coef = eta_inv[g][b]
                if coef:
                    acc = acc + grads[b].diff(e).scale(coef)
            row.append(acc)
        rows.append(row)
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

    def characteristic(flow: HierarchyFlow) -> list[MultiPoly]:
        out = []
        for g in range(n):
            acc = MultiPoly.zero(jet)
            for e in range(n):
                a = _lift_jet(flow.matrix[g][e], jet)
                acc = acc + a * MultiPoly.variable(jet, n + e)
            out.append(acc)
        return out

    def total_x(p: MultiPoly) -> MultiPoly:
        acc = MultiPoly.zero(jet)
        for s in range(n):
            acc = acc + p.diff(s) * MultiPoly.variable(jet, n + s)
            acc = acc + p.diff(n + s) * MultiPoly.variable(jet, 2 * n + s)
        return acc

    def frechet(q: list[MultiPoly], p: list[MultiPoly]) -> list[MultiPoly]:
        out = []
        for g in range(n):
            acc = MultiPoly.zero(jet)
            for b in range(n):
                acc = acc + q[g].diff(b) * p[b]
                acc = acc + q[g].diff(n + b) * total_x(p[b])
            out.append(acc)
        return out

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


def genus1_restricted(
    chart: FMChart,
    t,
    tdot,
    tol: float = 1e-9,
    base_point=None,
    evaluator: ChartEvaluator | None = None,
) -> Genus1Value:
    """Restricted genus-1 free energy at (t, tdot) relative to ``base_point``.

    Requires t semisimple and M nonsingular."""
    ev = evaluator if evaluator is not None else ChartEvaluator(chart)
    tt = np.array([complex(x) for x in t], dtype=complex)
    td = np.array([complex(x) for x in tdot], dtype=complex)
    canonical_coordinates(ev, tt)  # semisimplicity gate
    M = np.einsum("abg,g->ab", ev.third(tt), td)
    det = complex(np.linalg.det(M))
    if abs(det) < 1e-13:
        raise NumericError("velocity matrix M is singular at this point")
    if base_point is None:
        raise AlgebraError("genus1_restricted needs a base point for the G part")
    gv = g_function(ev, base_point, tt, tol=tol)
    return Genus1Value(
        tuple(complex(x) for x in tt),
        tuple(complex(x) for x in td),
        tuple(tuple(complex(x) for x in row) for row in M),
        gv,
        complex(np.log(det)),
    )
