"""Isomonodromy flows on skew matrices, tau quadrature, and the G-function.

The flows del_i V = [V_i, V] (V_i solving [U, V_i] = [E_i, V]) preserve the
spectrum of V and the monodromy of the underlying connection; along a path in
u-space the log tau increment is the quadrature of the closed 1-form

    d log tau = sum_i H_i du_i,     H_i = 1/2 sum_{j != i} V_ij^2 / (u_i - u_j).

Free integration uses an embedded Dormand-Prince 5(4) pair with adaptive
steps on the strict upper triangle of V (skewness is exact by
representation).  Chart-driven evaluation recomputes V from frames instead of
evolving it, which is what the G-function

    G = log tau - (1/24) log J,   J = det(dt^a/du_i)

needs: differences of G between chart points are quadratures of exact frame
data, with no ODE drift.  Each quadrature level reads its new nodes as one
frame stack (``canonical_frames``) and evaluates the integrand over the stack.
log J follows J^2 through the frames the quadrature reads; J^2 does not
depend on how the u_i are labelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, require_positive
from .frames import (
    DEFAULT_MARGIN,
    _as_evaluator,
    _over_gaps,
    _pairs,
    _require_separated,
    canonical_frame,  # unused here; perfbench's tracer wraps it under this module's name
    canonical_frames,
    match_ordering,  # unused here; perfbench's tracer wraps it under this module's name
    vi_matrices,
)


def upper_of(V: np.ndarray) -> np.ndarray:
    """Strict upper triangle of V, row by row."""
    V = np.asarray(V)
    return V[_pairs(V.shape[0])]


def skew_from_upper(n: int, upper: np.ndarray) -> np.ndarray:
    i, j = _pairs(n)
    V = np.zeros((n, n), dtype=complex)
    V[i, j] = upper
    V[j, i] = -np.asarray(upper)
    return V


@dataclass(frozen=True)
class IsomonodromyState:
    """A point (u, V): distinct u_i and the strict upper triangle of skew V."""

    u: tuple[complex, ...]
    v_upper: tuple[complex, ...]

    @classmethod
    def from_matrix(cls, u, V) -> "IsomonodromyState":
        u = tuple(complex(x) for x in u)
        V = np.asarray(V, dtype=complex)
        return cls(u, tuple(upper_of(V)))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def v_matrix(self) -> np.ndarray:
        return skew_from_upper(self.n, np.array(self.v_upper))


def hamiltonians(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """H_i = 1/2 sum_{j != i} V_ij^2 / (u_i - u_j); their sum vanishes.  Over
    stacks u (..., n) and V (..., n, n) alike."""
    return 0.5 * (V * _over_gaps(u, V)).sum(axis=-1)


def flow_rhs(i: int, state: IsomonodromyState) -> np.ndarray:
    """del_i V = [V_i, V] for the 1-based direction i."""
    if not 1 <= i <= state.n:
        raise NumericError("direction index out of range")
    V = state.v_matrix
    Vi = vi_matrices(np.array(state.u), V).vs[i - 1]
    return Vi @ V - V @ Vi


def _directional_flow(u: np.ndarray, V: np.ndarray, du: np.ndarray) -> tuple[np.ndarray, complex]:
    """sum_i du_i [V_i, V] and sum_i du_i H_i at (u, V), in closed form.

    sum_i du_i V_i = W with W_jk = V_jk (du_j - du_k) / (u_j - u_k) and
    W_jj = 0, so the first is [W, V]; the second is 1/4 sum_jk V_jk W_jk."""
    W = _over_gaps(u, V) * (du[:, None] - du)
    return W @ V - V @ W, 0.25 * (V * W).sum()


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_B5 = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
_DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))
MAX_STEPS = 200_000  # accepted plus rejected steps before integrate gives up


@dataclass
class TrajectorySample:
    param: float
    u: tuple[complex, ...]
    v_upper: tuple[complex, ...]
    hamiltonian_values: tuple[complex, ...]
    log_tau: complex


@dataclass
class IsomonodromyTrajectory:
    samples: list[TrajectorySample] = field(default_factory=list)
    steps: int = 0
    rejected: int = 0

    @property
    def final_state(self) -> IsomonodromyState:
        last = self.samples[-1]
        return IsomonodromyState(last.u, last.v_upper)

    @property
    def log_tau(self) -> complex:
        return self.samples[-1].log_tau


def integrate(state0: IsomonodromyState, path, tol: float = 1e-10) -> IsomonodromyTrajectory:
    """Integrate dV = sum_i [V_i, V] du_i along a piecewise-linear u-path.

    ``path`` is a sequence of u-waypoints starting the continuation from
    state0.u; log tau accumulates through the same error-controlled steps,
    whose local error is held below ``tol`` (finite, > 0).  A step that would
    bring two u_i within DEFAULT_MARGIN * max|u| raises SemisimplicityError,
    and more than MAX_STEPS steps raise NumericError."""
    require_positive(tol, "tol")
    n = state0.n
    u0 = np.array(state0.u, dtype=complex)
    waypoints = [np.array([complex(x) for x in w], dtype=complex) for w in path]
    if not waypoints or not np.allclose(waypoints[0], u0):
        waypoints = [u0] + waypoints

    traj = IsomonodromyTrajectory()
    y = np.concatenate([np.array(state0.v_upper, dtype=complex), [0j]])
    n_upper = n * (n - 1) // 2
    upper = _pairs(n)

    def record(param: float, u: np.ndarray, yv: np.ndarray) -> None:
        V = skew_from_upper(n, yv[:n_upper])
        traj.samples.append(
            TrajectorySample(
                param,
                tuple(u),
                tuple(yv[:n_upper]),
                tuple(hamiltonians(u, V)),
                complex(yv[n_upper]),
            )
        )

    _require_separated(u0, DEFAULT_MARGIN, "path hits a caustic")
    record(0.0, u0, y)

    for seg in range(len(waypoints) - 1):
        ua, ub = waypoints[seg], waypoints[seg + 1]
        du = ub - ua

        def rhs(s: float, yv: np.ndarray) -> np.ndarray:
            dV, dtau = _directional_flow(ua + s * du, skew_from_upper(n, yv[:n_upper]), du)
            return np.concatenate((dV[upper], [dtau]))

        s = 0.0
        h = 0.1
        while s < 1.0:
            if traj.steps + traj.rejected > MAX_STEPS:
                raise NumericError("step limit exceeded")
            h = min(h, 1.0 - s)
            if h < 1e-14:
                raise NumericError("step-size underflow (likely near a caustic)")
            _require_separated(ua + (s + h) * du, DEFAULT_MARGIN, "path hits a caustic")
            k = np.empty((7, len(y)), dtype=complex)
            k[0] = rhs(s, y)
            for stage in range(1, 7):
                k[stage] = rhs(s + _DP_C[stage] * h, y + h * (_DP_A[stage] @ k[:stage]))
            y5 = y + h * (_DP_B5 @ k)
            y4 = y + h * (_DP_B4 @ k)
            err = float(np.max(np.abs(y5 - y4)))
            scale = max(1.0, float(np.max(np.abs(y5))))
            if err <= tol * scale:
                s += h
                y = y5
                traj.steps += 1
                record(seg + s, ua + s * du, y)
            else:
                traj.rejected += 1
            factor = 0.9 * (tol * scale / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
    return traj


# -- chart-driven G-function ---------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
MAX_LEVEL = 12  # finest dyadic level of the tau quadrature: 2^MAX_LEVEL panels
STACK_CHUNK = 512  # most points read as one frame stack, which caps peak memory


@dataclass
class GValue:
    """Difference of the G-function between two chart points, with what it
    cost and how sure it is: the tau quadrature level reached, the number of
    distinct frames evaluated and the largest frame defect |Psi^T Psi - eta|
    among them."""

    base_point: tuple[complex, ...]
    target_point: tuple[complex, ...]
    d_log_tau: complex
    d_log_j: complex
    level: int
    frames: int
    max_defect: float

    @property
    def delta_g(self) -> complex:
        return self.d_log_tau - self.d_log_j / 24


def g_function(chart, t0, t1, tol: float = 1e-9) -> GValue:
    """Delta G = Delta log tau - (1/24) Delta log J along the straight t-segment.

    V(u) is read off the chart's own frames at quadrature nodes (no ODE
    drift).  The tau quadrature doubles its panels from 2^2 until two levels
    agree to ``tol`` (finite, > 0); each level's new nodes are read as one
    frame stack (in chunks of STACK_CHUNK points), and the integrand is
    evaluated over the stack.  Then Delta log J = 1/2 sum_k
    Log(J_k^2 / J_{k-1}^2) over every frame read so far, ends included, in
    sigma order.  Relabelling the u's only flips the sign of J, so J^2 needs
    no matching of labels.  A step with |J_k^2 / J_{k-1}^2 - 1| > 0.7 sends
    the loop on to the next level; none goes past 2^MAX_LEVEL panels."""
    require_positive(tol, "tol")
    ev = _as_evaluator(chart)
    t0 = np.array([complex(x) for x in t0], dtype=complex)
    t1 = np.array([complex(x) for x in t1], dtype=complex)
    dt = t1 - t0
    jacobians: dict[float, complex] = {}  # J at every sigma read, the ends included
    integrand: dict[float, complex] = {}  # sum_i H_i du_i/dsig there
    defects: list[float] = []

    def read(sigs: list[float]) -> None:
        """Frames at the sigmas not read yet, one stack per STACK_CHUNK of them."""
        new = [sig for sig in sigs if sig not in jacobians]
        for k in range(0, len(new), STACK_CHUNK):
            chunk = new[k:k + STACK_CHUNK]
            fr = canonical_frames(ev, t0 + np.array(chunk)[:, None] * dt)
            # du_i/dsig from dt = idempotents^T du
            rhs = np.broadcast_to(dt[:, None], (len(chunk), len(dt), 1))
            udot = np.linalg.solve(np.swapaxes(fr.idempotents, 1, 2), rhs)[..., 0]
            values = np.sum(hamiltonians(fr.u, fr.v) * udot, axis=1)
            jacobians.update(zip(chunk, np.linalg.det(fr.idempotents).tolist()))
            integrand.update(zip(chunk, values.tolist()))
            defects.append(float(fr.defect.max()))

    def log_j() -> complex | None:
        """1/2 Delta log J^2 through the frames read, None if a step jumps."""
        squares = np.array([jacobians[sig] for sig in sorted(jacobians)]) ** 2
        ratios = squares[1:] / squares[:-1]
        if np.abs(ratios - 1.0).max() > 0.7:
            return None
        return complex(np.log(ratios).sum()) / 2

    # reading the end frames first rejects an end point on the caustic before
    # any quadrature; both are steps of the log J tracking
    read([0.0, 1.0])
    prev = None
    converged = False
    for level in range(2, MAX_LEVEL + 1):
        panels = 2**level
        p = np.arange(panels)
        a, b = p / panels, (p + 1) / panels
        mid, half = (a + b) / 2, (b - a) / 2
        sigs = (mid[:, None] + half[:, None] * _GL_NODES).ravel().tolist()
        read(sigs)
        values = np.array([integrand[sig] for sig in sigs]).reshape(panels, len(_GL_NODES))
        total = complex(np.sum(_GL_WEIGHTS * values * half[:, None]))
        if prev is not None and abs(total - prev) <= tol / 4:
            converged = True
            d_log_j = log_j()
            if d_log_j is not None:
                return GValue(
                    tuple(complex(x) for x in t0),
                    tuple(complex(x) for x in t1),
                    total,
                    d_log_j,
                    level=level,
                    frames=len(jacobians),
                    max_defect=max(defects),
                )
        prev = total
    if converged:
        raise NumericError("log J branch tracking failed; refine the path")
    raise NumericError("tau quadrature did not converge at the requested tolerance")
