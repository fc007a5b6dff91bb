"""Deformed flat coordinates as graded matrix series, with their pairing table.

The deformed flat coordinate functions t~_l(t; z) = sum_p theta_l^(p) z^p obey

    d_a d_b theta_l^(p+1) = c_{ab}^g d_g theta_l^(p),    theta_l^(0) = eta_{lg} t^g.

Everything downstream reads only the gradients G_p[l][b] = d_b theta_l^(p), so
the recursion carries those.  The right-hand side is the Hessian H of
theta^(p+1); each row H[b] integrates once to G_{p+1}[l][b], and
d_a G_{p+1}[l][b] = H_ab is checked exactly (a failure signals a WDVV failure
upstream).  One more integration gives theta^(p+1); normalizing every
theta^(p) (p >= 1) to have no constant and no linear part makes the series
unique.  With the eta-raised gradients Theta_p = eta^{-1} G_p (so
Theta_0 = Id) and Phi(z) = sum_p Theta_p z^p, the series stores the pairing
table

    N(p, q) = Theta_q^T eta Theta_p = Theta_q^T G_p,
    the z^p w^q coefficient of Phi^T(w) eta Phi(z),

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
        _require_order(self, p)
        _require_label(lam, len(self.thetas[p]))
        return self.thetas[p][lam - 1]


def _combine(ring: Potential, coefs, elements) -> Potential:
    """sum_g coefs[g] elements[g] for rational coefs, in the ring of ``ring``."""
    return ring.dot((ring.const_like(k), x) for k, x in zip(coefs, elements))


def deformed_flat_coordinates(chart: FMChart, order: int) -> DeformedFlatSeries:
    """The series up to z^order, from the gradient recursion.

    An inconsistent recursion (a Hessian whose rows do not integrate to a
    gradient) signals a WDVV failure upstream and raises."""
    if order < 0:
        raise AlgebraError(f"deformed flat series order must be >= 0, got {order}")
    n = chart.n
    c = structure_constants(chart)
    zero = chart.potential.zero_like()
    t = [zero.var_like(g) for g in range(n)]
    # G_0[lam][b] = d_b theta_lam^(0) = eta_{lam b}
    grads = [[[zero.const_like(e) for e in row] for row in chart.eta]]
    thetas = [[_combine(zero, row, t) for row in chart.eta]]
    for p in range(order):
        level_grads, level_thetas = [], []
        for lam, G in enumerate(grads[-1]):
            # H_ab = c_{ab}^g G_g is symmetric: build b >= a and mirror
            H = [[zero] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    H[a][b] = H[b][a] = zero.dot(zip(c[a][b], G))
            # drop the q^0 constant that integrating an ExpSeries from t' = 0
            # leaves, which d theta^(p+1) has not (no-op on a MultiPoly)
            new = [potential_from_gradient(row).drop_degree_at_most(0) for row in H]
            for a in range(n):
                for b, g in enumerate(new):
                    if g.diff(a) != H[a][b]:
                        raise AlgebraError(
                            f"deformed-flat recursion inconsistent at order {p + 1}, "
                            f"component {lam + 1}: Hessian not integrable at entry "
                            f"({a + 1},{b + 1})"
                        )
            level_grads.append(new)
            level_thetas.append(potential_from_gradient(new).drop_degree_at_most(1))
        grads.append(level_grads)
        thetas.append(level_thetas)

    matrices = [
        [[_combine(zero, row, G) for G in level] for row in chart.eta_inv] for level in grads
    ]
    # N(p, q) = Theta_q^T G_p and N(q, p) = N(p, q)^T; the diagonal p = q
    # keeps its block as formed
    pairings = {}
    for p in range(order // 2 + 1):
        for q in range(p, order + 1 - p):
            block = [[zero.dot(zip(col, G)) for G in grads[p]] for col in zip(*matrices[q])]
            pairings[(q, p)] = [list(col) for col in zip(*block)]
            pairings[(p, q)] = block
    return DeformedFlatSeries(order, thetas, matrices, pairings)


def _require_order(series: DeformedFlatSeries, p: int) -> None:
    if not 0 <= p <= series.order:
        raise AlgebraError(f"order {p} outside 0..{series.order} of the series")


def _require_label(label: int, n: int) -> None:
    """A 1-based component label must lie in 1..n."""
    if not 1 <= label <= n:
        raise AlgebraError(f"component label {label} outside 1..{n}")


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
