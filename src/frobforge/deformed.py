"""Deformed flat coordinates as graded matrix series, with their pairing table.

The deformed flat coordinate functions t~_l(t; z) = sum_p theta_l^(p) z^p obey

    d_a d_b theta_l^(p+1) = c_{ab}^g d_g theta_l^(p),    theta_l^(0) = eta_{lg} t^g.

Each step determines theta^(p+1) up to an affine function; normalizing every
theta^(p) (p >= 1) to have no constant and no linear part makes the series
unique.  With Theta_p the eta-raised Jacobian of theta^(p) (so Theta_0 = Id)
and Phi(z) = sum_p Theta_p z^p, the series stores the pairing table

    N(p, q) = Theta_q^T eta Theta_p,   the z^p w^q coefficient of Phi^T(w) eta Phi(z),

for p + q <= order.  Since N(q, p) = N(p, q)^T each unordered pair is formed
once.  The pairing identity Phi^T(-z) eta Phi(z) = eta reads, order by order,

    sum_a (-1)^a N(p - a, a) = eta [p=0],

and the descendent table (descendents.omega_table) divides the same N by
(z + w).
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import FMChart, Potential, structure_constants
from .errors import AlgebraError


def integral_from_zero(f: Potential, var: int) -> Potential:
    """Definite integral from 0 to t^var along that coordinate."""
    g = f.integrate(var)
    return g - g.subs_zero(var)


def potential_from_gradient(components: list[Potential]) -> Potential:
    """Reconstruct H with d_a H = h_a from a closed collection (h_a).

    Integrates along the coordinate polyline from the origin:
    H = int h_1 dt^1 + int h_2|_{t1=0} dt^2 + ...  The caller is responsible
    for closedness; verify the gradient afterwards if it is not guaranteed.
    """
    acc = components[0].zero_like()
    for j, h in enumerate(components):
        for i in range(j):
            h = h.subs_zero(i)
        if not h.is_zero():
            acc = acc + integral_from_zero(h, j)
    return acc


def potential_from_hessian(hess: list[list[Potential]]) -> Potential:
    """Reconstruct H with d_a d_b H = hess[a][b], normalized to zero affine part.

    Raises AlgebraError if the candidate fails to reproduce the Hessian
    exactly (non-integrable input)."""
    n = len(hess)
    grads = [potential_from_gradient(list(hess[a])) for a in range(n)]
    h = potential_from_gradient(grads)
    h = h.drop_degree_at_most(1)
    for a in range(n):
        da = h.diff(a)
        for b in range(a, n):
            if da.diff(b) != hess[a][b]:
                raise AlgebraError(
                    f"Hessian reconstruction failed at ({a + 1},{b + 1}); "
                    "input is not an integrable symmetric tensor"
                )
    return h


@dataclass
class DeformedFlatSeries:
    """Coefficients of the deformed flat coordinate system.

    ``thetas[p][l]`` is theta_l^(p); ``matrices[p]`` is Theta_p with entries
    (Theta_p)^a_l = eta^{ab} d_b theta_l^(p), so matrices[0] is the identity;
    ``pairings[(p, q)]`` is N(p, q) = Theta_q^T eta Theta_p for p + q <= order.
    """

    order: int
    thetas: list[list[Potential]]
    matrices: list[list[list[Potential]]]
    pairings: dict[tuple[int, int], list[list[Potential]]]

    def theta(self, p: int, lam: int) -> Potential:
        """theta_lam^(p) with 1-based lam."""
        return self.thetas[p][lam - 1]


def _combine(ring: Potential, coefs, elements) -> Potential:
    """sum_g coefs[g] elements[g] for rational coefs, in the ring of ``ring``."""
    return ring.dot((ring.const_like(k), x) for k, x in zip(coefs, elements))


def deformed_thetas(chart: FMChart, order: int) -> list[list[Potential]]:
    """theta^(p) for p = 0..order: the gradient recursion solved up to z^order.

    An inconsistent recursion (mixed partials of the candidate differing from
    the prescribed Hessian) signals a WDVV failure upstream and raises."""
    if order < 0:
        raise AlgebraError(f"deformed flat series order must be >= 0, got {order}")
    n = chart.n
    c = structure_constants(chart)
    zero = chart.potential.zero_like()
    t = [zero.var_like(g) for g in range(n)]
    thetas: list[list[Potential]] = [[_combine(zero, chart.eta[lam], t) for lam in range(n)]]
    for p in range(order):
        prev = thetas[-1]
        new_level = []
        for lam in range(n):
            grads = [prev[lam].diff(g) for g in range(n)]
            # d_a d_b theta^(p+1) = c_{ab}^g d_g theta^(p): symmetric, so
            # build b >= a and mirror
            hess = [[zero] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    hess[a][b] = hess[b][a] = zero.dot(zip(c[a][b], grads))
            try:
                new_level.append(potential_from_hessian(hess))
            except AlgebraError as exc:
                raise AlgebraError(
                    f"deformed-flat recursion inconsistent at order {p + 1}, "
                    f"component {lam + 1}: {exc}"
                ) from exc
        thetas.append(new_level)
    return thetas


def deformed_flat_coordinates(chart: FMChart, order: int) -> DeformedFlatSeries:
    """The series up to z^order: deformed_thetas, their eta-raised Jacobians
    and the pairing table."""
    thetas = deformed_thetas(chart, order)
    n = chart.n
    matrices = []
    for level in thetas:
        grads = [[theta.diff(b) for b in range(n)] for theta in level]
        matrices.append(
            [[_combine(chart.potential, chart.eta_inv[a], g) for g in grads] for a in range(n)]
        )

    # N(q, p) = N(p, q)^T; the diagonal p = q keeps its block as formed
    pairings = {}
    for p in range(order // 2 + 1):
        for q in range(p, order + 1 - p):
            block = eta_pairing(chart, matrices[q], matrices[p])
            pairings[(q, p)] = [list(col) for col in zip(*block)]
            pairings[(p, q)] = block
    return DeformedFlatSeries(order, thetas, matrices, pairings)


def eta_pairing(
    chart: FMChart, A: list[list[Potential]], B: list[list[Potential]]
) -> list[list[Potential]]:
    """The matrix A^T eta B: entry (al, be) is one fused sum over the nonzero
    eta_{ij} of A[i][al] eta_{ij} B[j][be]."""
    n = chart.n
    eta = [(i, j, chart.eta[i][j]) for i in range(n) for j in range(n) if chart.eta[i][j]]
    return [
        [chart.potential.dot((A[i][al].scale(e), B[j][be]) for i, j, e in eta) for be in range(n)]
        for al in range(n)
    ]


def _require_order(series: DeformedFlatSeries, p: int) -> None:
    if not 0 <= p <= series.order:
        raise AlgebraError(f"pairing order {p} outside 0..{series.order} of the series")


def pairing_defect(chart: FMChart, series: DeformedFlatSeries, p: int) -> list[list[Potential]]:
    """sum_a (-1)^a N(p - a, a) minus eta [p=0] over the stored pairing table;
    zero when the series satisfies the pairing identity at order p."""
    _require_order(series, p)
    out = [[chart.potential.const_like(-e if p == 0 else 0) for e in row] for row in chart.eta]
    for a in range(p + 1):
        for row, block_row in zip(out, series.pairings[(p - a, a)]):
            for b, x in enumerate(block_row):
                row[b] = row[b] - x if a % 2 else row[b] + x
    return out


def pairing_holds(chart: FMChart, series: DeformedFlatSeries, through_order: int) -> bool:
    _require_order(series, through_order)
    defects = (pairing_defect(chart, series, p) for p in range(through_order + 1))
    return all(entry.is_zero() for defect in defects for row in defect for entry in row)
