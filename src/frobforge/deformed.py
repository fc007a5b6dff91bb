"""Deformed flat coordinates as graded matrix series.

The deformed flat coordinate functions t~_l(t; z) = sum_p theta_l^(p) z^p obey

    d_a d_b theta_l^(p+1) = c_{ab}^g d_g theta_l^(p),    theta_l^(0) = eta_{lg} t^g.

Each step determines theta^(p+1) up to an affine function; normalizing every
theta^(p) (p >= 1) to have no constant and no linear part makes the series
unique and yields the exact pairing identity

    sum_{a+b=p} (-1)^a Theta_a^T eta Theta_b = eta [p=0],

where Theta_p is the eta-raised Jacobian of theta^(p) (so Theta_0 = Id).
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


def potential_from_hessian(hess: list[list[Potential]], verify: bool = True) -> Potential:
    """Reconstruct H with d_a d_b H = hess[a][b], normalized to zero affine part.

    Raises AlgebraError if the candidate fails to reproduce the Hessian
    exactly (non-integrable input)."""
    n = len(hess)
    grads = [potential_from_gradient(list(hess[a])) for a in range(n)]
    h = potential_from_gradient(grads)
    h = h.drop_degree_at_most(1)
    if verify:
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
    (Theta_p)^a_l = eta^{ab} d_b theta_l^(p), so matrices[0] is the identity.
    """

    order: int
    thetas: list[list[Potential]]
    matrices: list[list[list[Potential]]]

    def theta(self, p: int, lam: int) -> Potential:
        """theta_lam^(p) with 1-based lam."""
        return self.thetas[p][lam - 1]

    def matrix(self, p: int) -> list[list[Potential]]:
        return self.matrices[p]


def deformed_flat_coordinates(chart: FMChart, order: int) -> DeformedFlatSeries:
    """Solve the gradient recursion up to z^order.

    An inconsistent recursion (mixed partials of the candidate differing from
    the prescribed Hessian) signals a WDVV failure upstream and raises."""
    n = chart.n
    c = structure_constants(chart)
    eta_inv = chart.eta_inv
    zero = chart.potential.zero_like()

    def combine(coefs, elements) -> Potential:
        """sum_g coefs[g] elements[g] for rational coefs."""
        return zero.dot((zero.const_like(k), x) for k, x in zip(coefs, elements))

    t = [zero.var_like(g) for g in range(n)]
    thetas: list[list[Potential]] = [[combine(chart.eta[lam], t) for lam in range(n)]]
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

    matrices = []
    for level in thetas:
        grads = [[theta.diff(b) for b in range(n)] for theta in level]
        matrices.append([[combine(eta_inv[a], g) for g in grads] for a in range(n)])
    return DeformedFlatSeries(order, thetas, matrices)


def _signed_pairings(chart: FMChart, terms) -> list[list[Potential]]:
    """sum of w A^T eta B over the (w, A, B) in ``terms``, each entry
    (al, be) one fused sum over (A, i, j) of w eta_{ij} A[i][al] B[j][be]."""
    n = chart.n
    eta = [(i, j, chart.eta[i][j]) for i in range(n) for j in range(n) if chart.eta[i][j]]
    return [
        [
            chart.potential.dot(
                (A[i][al].scale(w * e), B[j][be]) for w, A, B in terms for i, j, e in eta
            )
            for be in range(n)
        ]
        for al in range(n)
    ]


def eta_pairing(
    chart: FMChart, A: list[list[Potential]], B: list[list[Potential]]
) -> list[list[Potential]]:
    """The matrix A^T eta B: entry (al, be) is sum_{ij} A[i][al] eta_{ij} B[j][be]."""
    return _signed_pairings(chart, [(1, A, B)])


def pairing_defect(chart: FMChart, series: DeformedFlatSeries, p: int) -> list[list[Potential]]:
    """sum_{a+b=p} (-1)^a Theta_a^T eta Theta_b minus eta [p=0]; zero when the
    series satisfies the pairing identity at order p."""
    M = series.matrices
    out = _signed_pairings(chart, [((-1) ** a, M[a], M[p - a]) for a in range(p + 1)])
    if p == 0:
        out = [
            [x - chart.potential.const_like(e) for x, e in zip(row, eta_row)]
            for row, eta_row in zip(out, chart.eta)
        ]
    return out


def pairing_holds(chart: FMChart, series: DeformedFlatSeries, through_order: int) -> bool:
    for p in range(through_order + 1):
        defect = pairing_defect(chart, series, p)
        for row in defect:
            for entry in row:
                if not entry.is_zero():
                    return False
    return True
