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
from functools import lru_cache

import numpy as np

from .charts import FMChart, mu_matrix, structure_constants
from .errors import NumericError, SemisimplicityError, ValidationError
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
            self._marker = chart.potential.marker_var
        else:
            self._marker = None
        self.E, self.C = _compile(entries)
        mu = mu_matrix(chart)
        self.mu = np.array([[float(x) for x in row] for row in mu])
        self.mu_diag = tuple(mu[i][i] for i in range(self.n))

    def c_tensor(self, t: np.ndarray) -> np.ndarray:
        """c_{ab}^g at one point t (n,), or at each point of a stack (m, n)
        with the point axis in front."""
        n = self.n
        x = np.asarray(t, dtype=complex)
        if self._marker is not None:  # lift to (t, q = e^{t_marker})
            x = np.concatenate((x, np.exp(x[..., self._marker, None])), axis=-1)
        mono = np.prod(x[..., None, :] ** self.E, axis=-1)
        return (mono @ self.C).reshape(*x.shape[:-1], n, n, n)

    def third(self, t: np.ndarray) -> np.ndarray:
        return np.einsum("abg,ge->abe", self.c_tensor(t), self.eta)

    def euler(self, t: np.ndarray) -> np.ndarray:
        """E(t) at one point or at each point of a stack, as c_tensor."""
        return t @ self.e_lin.T + self.e_const

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


def _separation(u: np.ndarray, margin: float):
    """Gaps |u_i - u_j| of one point u (n,) or of each point of a stack
    (m, n), pairs i < j in row-major order along the first axis; the limit
    margin * max|u| of each point; and whether each point clears it.  A
    non-finite gap never does: NaN compares False against any limit."""
    i, j = _pairs(u.shape[-1])
    u = u.T  # coordinates first, so one index reaches every point
    limit = margin * np.abs(u).max(axis=0)
    gaps = np.abs(u[i] - u[j])
    return gaps, limit, (gaps > limit).all(axis=0)


def _collision(what: str, n: int, gaps, limit) -> SemisimplicityError:
    """The error naming the first failing pair among one point's n coordinates."""
    i, j = _pairs(n)
    k = int(np.argmin(gaps > limit))
    return SemisimplicityError(
        f"{what}: |u_{i[k] + 1} - u_{j[k] + 1}| = {gaps[k]:.3e} (margin {limit:.3e})"
    )


def _require_separated(
    u: np.ndarray, margin: float, what: str = "canonical coordinates collide"
) -> None:
    """Raise SemisimplicityError naming the first pair (i < j, row-major) with
    |u_i - u_j| <= margin * max|u| or a non-finite gap."""
    u = np.asarray(u)
    gaps, limit, separated = _separation(u, margin)
    if not separated:
        raise _collision(what, len(u), gaps, limit)


@dataclass
class CanonicalFrame:
    """Frame data (u, Psi, V) of a chart at one semisimple point."""

    u: np.ndarray              # canonical coordinates, in frame order
    psi: np.ndarray            # rows i: psi_{ia}
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


class FrameStack:
    """Frames at m points, stacked on a leading axis: each field is the
    CanonicalFrame field of every point (u, norms and ordering m x n; psi, v
    and idempotents m x n x n; defect of length m), and ``stack[k]`` is the
    CanonicalFrame of point k.  A plain class, since a dataclass costs about a
    millisecond at import."""

    def __init__(self, u, psi, v, idempotents, norms, ordering, defect):
        self.u, self.psi, self.v = u, psi, v
        self.idempotents, self.norms = idempotents, norms
        self.ordering, self.defect = ordering, defect

    def __len__(self) -> int:
        return len(self.u)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __getitem__(self, k: int) -> CanonicalFrame:
        return CanonicalFrame(
            u=self.u[k],
            psi=self.psi[k],
            v=self.v[k],
            idempotents=self.idempotents[k],
            norms=self.norms[k],
            ordering=tuple(self.ordering[k].tolist()),
            defect=float(self.defect[k]),
        )


def _product(c: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise algebra products over a stack: row i of point k is
    x_ki * y_ki, i.e. c_{ab}^g x_kia y_kib."""
    m, n = X.shape[:2]
    return (X[..., None] * Y[:, :, None, :]).reshape(m, n, n * n) @ c.reshape(m, n * n, n)


def canonical_frames(chart, T) -> FrameStack:
    """Idempotent frames, Psi matrices and V at a stack T (m x n) of
    semisimple points, every step done for all m points at once.

    Raw eigenvectors of the (generally non-normal) multiplication operator
    can carry errors far above machine precision, so each candidate
    idempotent is purified by the algebra Newton map pi -> 3 pi^2 - 2 pi^3
    and the canonical coordinates are refreshed from the purified frame.

    The residual of Psi^T Psi = eta measures the frame quality; it can only
    be large when the multiplication itself fails to be associative at the
    point (e.g. far outside the reliable domain of a truncated potential);
    a residual above FRAME_TOL, and any non-finite u, Psi, V or residual, is
    always a hard error.  Canonical coordinates closer than DEFAULT_MARGIN *
    max|u| raise SemisimplicityError.  The error raised is the one of the
    first failing point, as canonical_frame at that point alone raises it."""
    ev = _as_evaluator(chart)
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[1] != ev.n:
        raise ValidationError(f"points must form an m x {ev.n} stack, got shape {T.shape}")
    pts, rows = np.arange(len(T))[:, None], np.arange(ev.n)
    checks = []  # (failing points, error of point k) in the order a point meets them

    def at_largest(X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """X_kij / P_kij at the largest |P_kij| of each row i of each point k."""
        j = np.argmax(np.abs(P), axis=-1)
        return X[pts, rows, j] / P[pts, rows, j]

    def separated(u: np.ndarray) -> None:
        gaps, limit, ok = _separation(u, DEFAULT_MARGIN)
        checks.append((~ok, lambda k: _collision(
            "canonical coordinates collide", ev.n, gaps[:, k], limit[k])))

    # a failed point computes on to garbage that nothing reads: no warnings
    with np.errstate(all="ignore"):
        c = ev.c_tensor(T)
        M = np.einsum("ma,mabg->mgb", ev.euler(T), c)
        finite = np.isfinite(M).all(axis=(1, 2))
        checks.append((~finite, lambda k: NumericError(
            "frame breakdown: the multiplication by E is not finite at this point")))
        w, vecs = np.linalg.eig(M if finite.all() else np.where(finite[:, None, None], M, 0))
        separated(w)

        # rows of P[k] are the candidate idempotents of point k, purified together
        P = np.swapaxes(vecs, 1, 2)
        lam = at_largest(_product(c, P, P), P)
        checks.append((np.abs(lam).min(axis=1) < 1e-13, lambda k: SemisimplicityError(
            "nilpotent direction: eigenvector squares to ~0")))
        P = P / lam[..., None]
        for _ in range(8):
            sq = _product(c, P, P)
            active = np.abs(sq - P).max(axis=-1) >= 1e-14
            if not active.any():
                break
            cube = _product(c, sq, P)
            P = np.where(active[..., None], 3 * sq - 2 * cube, P)
        refined_u = at_largest(P @ np.swapaxes(M, 1, 2), P)
        checks.append((~np.isfinite(refined_u).all(axis=1), lambda k: NumericError(
            "frame breakdown: the idempotent purification diverged at this point "
            "(the multiplication is not associative to working accuracy here)")))

        order = np.lexsort((refined_u.imag, refined_u.real), axis=-1)
        u = refined_u[pts, order]
        separated(u)
        idem = P[pts, order]

        lowered = idem @ ev.eta
        norms = np.sum(lowered * idem, axis=-1)
        checks.append((np.abs(norms).min(axis=1) < 1e-13, lambda k: NumericError(
            "frame breakdown: an idempotent has ~zero square norm")))
        psi = lowered / np.sqrt(norms)[..., None]
        psi_t = np.swapaxes(psi, 1, 2)
        defect = np.abs(psi_t @ psi - ev.eta).max(axis=(1, 2))

        # V = Psi mu Psi^{-1} with Psi^{-1} = eta^{-1} Psi^T, made exactly skew:
        # a - b is exactly -(b - a) in IEEE arithmetic and halving is exact
        v = psi @ (ev.mu @ ev.eta_inv) @ psi_t
        v = (v - np.swapaxes(v, 1, 2)) / 2
        checks.append((~(np.isfinite(defect) & np.isfinite(v).all(axis=(1, 2))),
                       lambda k: NumericError("frame breakdown: non-finite Psi or V at this point")))
        checks.append((defect > FRAME_TOL, lambda k: NumericError(
            f"frame breakdown: |Psi^T Psi - eta| = {defect[k]:.2e} at this point "
            "(the multiplication is not associative to working accuracy here; "
            "for truncated potentials move to a better-converged region)"
        )))
    failing = np.array([bad for bad, _ in checks])
    if failing.any():
        k = int(np.argmax(failing.any(axis=0)))
        raise checks[int(np.argmax(failing[:, k]))][1](k)
    return FrameStack(
        u=u,
        psi=psi,
        v=v,
        idempotents=idem,
        norms=norms,
        ordering=order,
        defect=defect,
    )


def canonical_frame(chart, t) -> CanonicalFrame:
    """Idempotent frame, Psi matrix and V at one semisimple point: the stack
    of that point alone through canonical_frames, with its checks and errors."""
    return canonical_frames(chart, _as_point(t)[None])[0]


def _over_gaps(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """R_{jk} = V_{jk} / (u_j - u_k) off the diagonal, R_{jj} = 0, over
    stacks u (..., n) and V (..., n, n) alike."""
    n = u.shape[-1]
    gaps = u[..., :, None] - u[..., None, :]
    gaps.reshape(*gaps.shape[:-2], n * n)[..., :: n + 1] = np.inf  # V_jj / inf = 0
    return V / gaps


def vi_matrices(u, V) -> np.ndarray:
    """The skew matrices V_i solving [U, V_i] = [E_i, V], stacked as an
    (n, n, n) array: (V_i)_{jk} = (delta_{ij} V_{ik} - delta_{ik} V_{ji}) /
    (u_j - u_k).  u closer than DEFAULT_MARGIN * max|u| raises
    SemisimplicityError.  The definition the closed-form flow of
    ``isomonodromy`` is tested against."""
    u = np.asarray(u, dtype=complex)
    V = np.asarray(V, dtype=complex)
    _require_separated(u, DEFAULT_MARGIN)
    R = _over_gaps(u, V)
    n = len(u)
    k = np.arange(n)
    vs = np.zeros((n, n, n), dtype=complex)
    vs[k, k, :] = R
    vs[k, :, k] = -R.T
    return vs


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

