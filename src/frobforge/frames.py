"""Canonical coordinates and orthonormal frames at semisimple points.

At a semisimple point the tangent algebra splits into one-dimensional
idempotent directions pi_1..pi_n; their Euler eigenvalues u_i serve as local
coordinates.  The frame data collects

    psi_{i1} = sqrt(<pi_i, pi_i>),   psi_{ia} = psi_{i1}^{-1} (eta pi_i)_a,
    Psi^T Psi = eta,                 V = Psi mu Psi^{-1} = -V^T,

with mu the constant grading matrix of the chart.  All of this is numerical
(complex double precision); points too close to a caustic are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .charts import FMChart, mu_matrix, structure_constants
from .errors import NumericError, SemisimplicityError
from .series import ExpSeries

DEFAULT_MARGIN = 1e-6
FRAME_TOL = 1e-8  # largest |Psi^T Psi - eta| a frame may carry


def _compile(polys):
    """Exponent matrix and coefficient matrix of a list of MultiPoly entries of
    one arity, over the union of their monomials."""
    rows: dict[tuple[int, ...], int] = {}
    index, cols, vals = [], [], []
    for col, p in enumerate(polys):
        for exps, coef in p.terms.items():
            index.append(rows.setdefault(exps, len(rows)))
            cols.append(col)
            vals.append(float(coef))
    E = np.array(list(rows), dtype=np.int64).reshape(len(rows), polys[0].arity)
    C = np.zeros((len(rows), len(polys)), dtype=complex)
    C[index, cols] = vals
    return E, C


class ChartEvaluator:
    """Precompiled numeric access to a chart's tensors at complex points.

    The structure constants are compiled once into one linear map over the
    union of the monomials of all n^3 entries c_{ab}^g, each a polynomial in
    x = t, or in x = (t, q = e^{t_marker}) for an exponential series.  Row r
    of the exponent matrix ``E`` stands for the monomial x^E[r], and ``C``
    (m x n^3, column (a n + b) n + g) holds its coefficients, so

        c(t) = prod(x**E, axis=1) @ C

    reshaped to n x n x n.  Since c = eta^{-1} F_3, the third derivatives
    F_{abe} = c_{ab}^g eta_{ge} follow exactly without a second compile."""

    def __init__(self, chart: FMChart):
        self.chart = chart
        self.n = chart.n
        self.eta = np.array([[float(x) for x in row] for row in chart.eta])
        self.eta_inv = np.linalg.inv(self.eta)
        self.e_lin = np.array([[float(x) for x in row] for row in chart.euler_linear])
        self.e_const = np.array([float(x) for x in chart.euler_const])
        entries = [p for plane in structure_constants(chart) for line in plane for p in line]
        if isinstance(chart.potential, ExpSeries):
            entries = [p.poly for p in entries]
            self._lift = chart.potential.lift_point
        else:
            self._lift = np.asarray
        self.E, self.C = _compile(entries)
        mu = mu_matrix(chart)
        self.mu = np.array([[float(x) for x in row] for row in mu])
        self.mu_diag = tuple(mu[i][i] for i in range(self.n))

    def c_tensor(self, t: np.ndarray) -> np.ndarray:
        n = self.n
        mono = np.prod(np.asarray(self._lift(t)) ** self.E, axis=1)
        return (mono @ self.C).reshape(n, n, n)

    def third(self, t: np.ndarray) -> np.ndarray:
        return np.einsum("abg,ge->abe", self.c_tensor(t), self.eta)

    def euler(self, t: np.ndarray) -> np.ndarray:
        return self.e_lin @ t + self.e_const

    def euler_mult(self, t: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by E(t): rows g, columns b."""
        c = self.c_tensor(t)
        e = self.euler(t)
        return np.einsum("a,abg->gb", e, c)


def _as_evaluator(chart) -> ChartEvaluator:
    return chart if isinstance(chart, ChartEvaluator) else ChartEvaluator(chart)


def _as_point(t) -> np.ndarray:
    return np.array([complex(x) for x in t], dtype=complex)


def canonical_coordinates(chart, t, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Eigenvalues of Euler multiplication at t, sorted by (Re, Im).

    Raises SemisimplicityError when two eigenvalues come closer than
    margin * max|u| (the point is outside the semisimple stratum)."""
    ev = _as_evaluator(chart)
    tt = _as_point(t)
    u = np.linalg.eigvals(ev.euler_mult(tt))
    u = u[np.lexsort((u.imag, u.real))]
    _require_separated(u, margin)
    return u


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of an n x n matrix in row-major order."""
    return np.triu_indices(n, 1)


def _require_separated(
    u: np.ndarray, margin: float, what: str = "canonical coordinates collide"
) -> None:
    """Raise SemisimplicityError naming the first pair (i < j, row-major) with
    |u_i - u_j| <= margin * max|u|."""
    u = np.asarray(u)
    limit = margin * max(np.abs(u).max(), 1e-300)
    i, j = _pairs(len(u))
    gaps = np.abs(u[i] - u[j])
    close = gaps <= limit
    if close.any():
        k = int(np.argmax(close))
        raise SemisimplicityError(
            f"{what}: |u_{i[k] + 1} - u_{j[k] + 1}| = {gaps[k]:.3e} (margin {limit:.3e})"
        )


@dataclass
class CanonicalFrame:
    """Frame data (u, Psi, V) of a chart at one semisimple point."""

    u: np.ndarray              # canonical coordinates, in frame order
    psi: np.ndarray            # rows i: psi_{ia}
    mu_diag: tuple[Fraction, ...]
    v: np.ndarray              # Psi mu Psi^{-1}
    idempotents: np.ndarray    # rows i: pi_i in the flat frame, i.e. dt^a/du_i
    norms: np.ndarray          # <pi_i, pi_i>
    ordering: tuple[int, ...]  # permutation applied to the raw eigen order
    defect: float = 0.0        # max |Psi^T Psi - eta|, the frame quality

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def psi1(self) -> np.ndarray:
        """Column psi_{i1}: principal square roots of the idempotent norms."""
        return np.sqrt(self.norms.astype(complex))

    @property
    def J(self) -> complex:
        """det(dt^a/du_i) over the frame's row order."""
        return complex(np.linalg.det(self.idempotents))


def _product(c: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise algebra products: row i is x_i * y_i, i.e. c_{ab}^g x_ia y_ib."""
    n = c.shape[0]
    return (X[:, :, None] * Y[:, None, :]).reshape(len(X), n * n) @ c.reshape(n * n, n)


def canonical_frame(chart, t) -> CanonicalFrame:
    """Idempotent frame, Psi matrix and V at a semisimple point.

    Raw eigenvectors of the (generally non-normal) multiplication operator
    can carry errors far above machine precision, so each candidate
    idempotent is purified by the algebra Newton map pi -> 3 pi^2 - 2 pi^3
    and the canonical coordinates are refreshed from the purified frame.

    The residual of Psi^T Psi = eta measures the frame quality; it can only
    be large when the multiplication itself fails to be associative at the
    point (e.g. far outside the reliable domain of a truncated potential);
    a residual above FRAME_TOL is always a hard error.  Canonical coordinates
    closer than DEFAULT_MARGIN * max|u| raise SemisimplicityError."""
    ev = _as_evaluator(chart)
    n = ev.n
    tt = _as_point(t)
    c = ev.c_tensor(tt)
    e_vec = ev.euler(tt)
    M = np.einsum("a,abg->gb", e_vec, c)
    w, vecs = np.linalg.eig(M)
    _require_separated(w, DEFAULT_MARGIN)

    # rows of P are the candidate idempotents, purified together
    rows = np.arange(n)
    P = vecs.T
    sq = _product(c, P, P)
    j = np.argmax(np.abs(P), axis=1)
    lam = sq[rows, j] / P[rows, j]
    if np.abs(lam).min() < 1e-13:
        raise SemisimplicityError("nilpotent direction: eigenvector squares to ~0")
    P = P / lam[:, None]
    for _ in range(8):
        sq = _product(c, P, P)
        active = np.abs(sq - P).max(axis=1) >= 1e-14
        if not active.any():
            break
        cube = _product(c, sq, P)
        P = np.where(active[:, None], 3 * sq - 2 * cube, P)
    j = np.argmax(np.abs(P), axis=1)
    refined_u = (P @ M.T)[rows, j] / P[rows, j]

    order = np.lexsort((refined_u.imag, refined_u.real))
    u = refined_u[order]
    _require_separated(u, DEFAULT_MARGIN)
    idem = P[order]

    lowered = idem @ ev.eta
    norms = np.sum(lowered * idem, axis=1)
    if np.abs(norms).min() < 1e-13:
        raise NumericError("frame breakdown: an idempotent has ~zero square norm")
    psi = lowered / np.sqrt(norms)[:, None]

    defect = float(np.abs(psi.T @ psi - ev.eta).max())
    if defect > FRAME_TOL:
        raise NumericError(
            f"frame breakdown: |Psi^T Psi - eta| = {defect:.2e} at this point "
            "(the multiplication is not associative to working accuracy here; "
            "for truncated potentials move to a better-converged region)"
        )

    # V = Psi mu Psi^{-1} with Psi^{-1} = eta^{-1} Psi^T, made exactly skew:
    # a - b is exactly -(b - a) in IEEE arithmetic and halving is exact
    v = psi @ (ev.mu @ ev.eta_inv) @ psi.T
    v = (v - v.T) / 2

    return CanonicalFrame(
        u=u,
        psi=psi,
        mu_diag=ev.mu_diag,
        v=v,
        idempotents=idem,
        norms=norms,
        ordering=tuple(int(x) for x in order),
        defect=defect,
    )


@dataclass
class ViSet:
    """The skew matrices V_i solving [U, V_i] = [E_i, V], with the E_i."""

    u: np.ndarray
    vs: list[np.ndarray]
    e_units: list[np.ndarray]

    def total(self) -> np.ndarray:
        return sum(self.vs)


def _over_gaps(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """R_{jk} = V_{jk} / (u_j - u_k) off the diagonal, R_{jj} = 0."""
    diagonal = slice(None, None, len(u) + 1)
    gaps = u[:, None] - u
    gaps.flat[diagonal] = 1
    R = V / gaps
    R.flat[diagonal] = 0
    return R


def vi_matrices(u, V) -> ViSet:
    """(V_i)_{jk} = (delta_{ij} V_{ik} - delta_{ik} V_{ji}) / (u_j - u_k)."""
    u = np.asarray(u, dtype=complex)
    V = np.asarray(V, dtype=complex)
    n = len(u)
    i, j = _pairs(n)
    if np.any(u[i] == u[j]):
        raise SemisimplicityError("coincident canonical coordinates")
    R = _over_gaps(u, V)
    k = np.arange(n)
    vs = np.zeros((n, n, n), dtype=complex)
    vs[k, k, :] = R
    vs[k, :, k] = -R.T
    return ViSet(u, list(vs), [np.diag(e) for e in np.eye(n)])


def _assignment(cost: np.ndarray) -> tuple[int, ...]:
    """Exact minimum-cost assignment (row i -> column p[i]) of a square cost
    matrix: the Hungarian method in its O(n^3) shortest-augmenting-path form
    with dual potentials.  Rows and columns are 1-based; column 0 is a
    virtual column from which each new row starts its search."""
    n = cost.shape[0]
    c = np.zeros((n + 1, n + 1))
    c[1:, 1:] = cost
    row_pot = np.zeros(n + 1)
    col_pot = np.zeros(n + 1)
    owner = np.zeros(n + 1, dtype=np.int64)  # owner[j]: row matched to column j, 0 if none
    came_from = np.zeros(n + 1, dtype=np.int64)
    for row in range(1, n + 1):
        owner[0], j0 = row, 0
        slack = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            reduced = c[i0] - row_pot[i0] - col_pot
            better = ~used & (reduced < slack)
            slack[better] = reduced[better]
            came_from[better] = j0
            j0 = int(np.argmin(np.where(used, np.inf, slack)))
            delta = slack[j0]
            row_pot[owner[used]] += delta
            col_pot[used] -= delta
            slack[~used] -= delta
        while j0:
            owner[j0] = owner[came_from[j0]]
            j0 = came_from[j0]
    p = np.empty(n, dtype=np.int64)
    p[owner[1:] - 1] = np.arange(n)
    return tuple(int(x) for x in p)


def match_ordering(u_ref, u_new) -> tuple[int, ...]:
    """Permutation p minimizing sum_i |u_new[p[i]] - u_ref[i]|, exact for every n.

    Every assignment pays at least the row minimum of the cost matrix
    |u_new[j] - u_ref[i]| in each row i, so the sum of row minima bounds the
    optimum from below.  When the row-wise argmins already form a permutation
    they attain that bound and are returned (the unique optimum when each row
    minimum is strict, hence what exhaustive search returns); otherwise the
    assignment is solved exactly in O(n^3)."""
    cost = np.abs(np.subtract.outer(np.asarray(u_ref), np.asarray(u_new)))
    p = np.argmin(cost, axis=1)
    if len(set(p.tolist())) == len(p):
        return tuple(int(x) for x in p)
    return _assignment(cost)

