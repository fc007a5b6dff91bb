"""Isomonodromy flows on skew matrices, tau quadrature, and the G-function.

The flows del_i V = [V_i, V] (V_i solving [U, V_i] = [E_i, V]) preserve the
spectrum of V and the monodromy of the underlying connection; along a path in
u-space the log tau increment is the quadrature of the closed 1-form

    d log tau = sum_i H_i du_i,     H_i = 1/2 sum_{j != i} V_ij^2 / (u_i - u_j).

Both are evaluated in one closed form: with R_jk = V_jk / (u_j - u_k),
sum_i du_i V_i = R o (du_j - du_k) and H_i = 1/2 sum_j V_ij R_ij, so no V_i
is built (``frames.vi_matrices`` builds them for the tests that check this
form).  ``flow_rhs`` and every step of ``integrate`` first require the u_i
to be DEFAULT_MARGIN * max|u| apart.  Free integration uses an embedded
Dormand-Prince 5(4) pair with adaptive steps on the strict upper triangle of
V (skewness is exact by representation).  Chart-driven evaluation
recomputes V from frames instead of evolving it, which is what the G-function

    G = log tau - (1/24) log J,   J = det(dt^a/du_i)

needs: differences of G between chart points are quadratures of exact frame
data, with no ODE drift.  The tau quadrature runs on adaptive Gauss-Kronrod
7-15 panels: each round reads the Kronrod nodes of every pending panel as
one frame stack (``canonical_frames``), accepts a panel of width w when
|K15 - G7| <= (tol / 4) w and bisects the rest.  The stop is absolute per
unit width because Delta G is compared with absolute closed forms.  log J
follows J^2 through the frames the quadrature reads; J^2 does not depend on
how the u_i are labelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import NumericError, ValidationError, require_positive
from .frames import (
    DEFAULT_MARGIN,
    _as_evaluator,
    _over_gaps,
    _pairs,
    _require_separated,
    canonical_frame,  # unused here; perfbench's tracer wraps it under this module's name
    canonical_frames,
    match_ordering,  # unused here; perfbench's tracer wraps it under this module's name
    vi_matrices,  # unused here; perfbench's tracer wraps it under this module's name
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
    """del_i V = [V_i, V] for the 1-based direction i: the closed-form flow at
    du = e_i.  u closer than DEFAULT_MARGIN * max|u| raises
    SemisimplicityError."""
    n = state.n
    if not (isinstance(i, Integral) and 1 <= i <= n):
        raise ValidationError(f"direction index must be an integer in 1..{n}, got {i!r}")
    u = np.array(state.u)
    _require_separated(u, DEFAULT_MARGIN)
    return _directional_flow(u, state.v_matrix, np.eye(n)[i - 1])[0]


def _directional_flow(u: np.ndarray, V: np.ndarray, du: np.ndarray) -> tuple[np.ndarray, complex]:
    """sum_i du_i [V_i, V] and sum_i du_i H_i at (u, V), in closed form.

    With R_jk = V_jk / (u_j - u_k) and R_jj = 0, sum_i du_i V_i is
    W = R o (du_j - du_k), and since W and V are skew, [W, V] = X - X^T with
    X = W V, exactly skew in IEEE arithmetic.  H_i = 1/2 sum_j V_ij R_ij as
    in ``hamiltonians``."""
    R = _over_gaps(u, V)
    X = (R * (du[:, None] - du)) @ V
    return X - X.T, (V * R).sum(axis=-1) @ du / 2


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


def _finite_point(t, n: int, what: str) -> np.ndarray:
    """t as a complex vector of n finite components, or ValidationError."""
    try:
        p = np.array([complex(x) for x in t], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a sequence of numbers: {exc}") from exc
    if len(p) != n or not np.isfinite(p).all():
        raise ValidationError(f"{what} must have {n} finite components, got {p.tolist()}")
    return p


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

    ``path`` is a sequence of u-waypoints continuing from state0.u; a first
    waypoint exactly equal to state0.u is skipped, and any other is the end
    of a first leg, however short.  log tau accumulates through the same
    error-controlled steps, whose local error is held below ``tol`` (finite,
    > 0).  The state and every waypoint must be finite with n components,
    which is checked before any step.  A step that would bring two u_i within
    DEFAULT_MARGIN * max|u| raises SemisimplicityError, and more than
    MAX_STEPS steps raise NumericError."""
    require_positive(tol, "tol")
    n = state0.n
    n_upper = n * (n - 1) // 2
    u0 = _finite_point(state0.u, n, "u")
    v0 = _finite_point(state0.v_upper, n_upper, f"the upper triangle of V for n = {n}")
    waypoints = [_finite_point(w, n, "every waypoint") for w in path]
    if not waypoints or (waypoints[0] != u0).any():
        waypoints = [u0] + waypoints

    traj = IsomonodromyTrajectory()
    y = np.concatenate([v0, [0j]])
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

# Gauss-Kronrod 7-15 pair (QUADPACK qk15; Piessens et al. 1983): the
# non-negative Kronrod nodes, outermost first, and the K15 and G7 weights
# there.  Every second Kronrod node, from the second, is a Gauss node.
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
# the 15 nodes on [-1, 1] in ascending order, and the rows K15, G7 of weights
# over them (G7 is zero at the Kronrod-only nodes)
_GK_NODES = np.concatenate((-np.array(_XK), _XK[-2::-1]))
_HALF_WEIGHTS = np.array((_WK, [0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3]]))
_GK_WEIGHTS = np.concatenate((_HALF_WEIGHTS, _HALF_WEIGHTS[:, -2::-1]), axis=1)
MIN_WIDTH = 2.0**-12  # narrowest tau quadrature panel, as a fraction of the segment
STACK_CHUNK = 512  # most points read as one frame stack, which caps peak memory


@dataclass
class GValue:
    """Difference of the G-function between two chart points, with what it
    cost and how sure it is: the tau quadrature panels accepted, their summed
    error estimate |K15 - G7|, the number of distinct frames evaluated and the
    largest frame defect |Psi^T Psi - eta| among them."""

    base_point: tuple[complex, ...]
    target_point: tuple[complex, ...]
    d_log_tau: complex
    d_log_j: complex
    panels: int
    error: float
    frames: int
    max_defect: float

    @property
    def delta_g(self) -> complex:
        return self.d_log_tau - self.d_log_j / 24


def g_function(chart, t0, t1, tol: float = 1e-9) -> GValue:
    """Delta G = Delta log tau - (1/24) Delta log J along the straight t-segment.

    V(u) is read off the chart's own frames at quadrature nodes (no ODE
    drift).  The tau quadrature runs on adaptive Gauss-Kronrod 7-15 panels of
    the segment parameter sigma in [0, 1], starting from one panel.  Each
    round reads the 15 Kronrod nodes of every pending panel as one frame stack
    (in chunks of STACK_CHUNK points); a panel of width w is accepted when
    |K15 - G7| <= (tol / 4) w and bisected otherwise, and Delta log tau is the
    sum of K15 over the accepted panels.  The stop is absolute per unit width,
    so the summed estimate is at most tol / 4 however the segment is cut, and
    Delta G carries an absolute error: it is compared with absolute closed
    forms (0 on the A_n charts, -Delta t_2 / 24 on QH(P^1), the Euler-flow
    constant), which a stop relative to |Delta log tau| would not bound.

    Delta log J = 1/2 sum_k Log(J_k^2 / J_{k-1}^2) over every frame read,
    ends included, in sigma order.  Relabelling the u's only flips the sign of
    J, so J^2 needs no matching of labels.  An accepted panel that holds a
    step with |J_k^2 / J_{k-1}^2 - 1| > 0.7 is bisected and read
    again.  No panel is cut below MIN_WIDTH: a split that would be raises
    NumericError.  The end points (n finite components each) and ``tol``
    (finite, > 0) are checked before any frame, and the end frames are read
    before any node, so a caustic end point fails after at most two points."""
    require_positive(tol, "tol")
    ev = _as_evaluator(chart)
    t0 = _finite_point(t0, ev.n, "t0")
    t1 = _finite_point(t1, ev.n, "t1")
    dt = t1 - t0
    sigmas: list[np.ndarray] = []  # every sigma read, the ends included
    jacobians: list[np.ndarray] = []  # J there
    defects: list[float] = []

    def read(sigs: np.ndarray) -> np.ndarray:
        """sum_i H_i du_i/dsig at each sigma, one frame stack per STACK_CHUNK
        of them; records J and the frame defect."""
        values = []
        for k in range(0, len(sigs), STACK_CHUNK):
            chunk = sigs[k:k + STACK_CHUNK]
            fr = canonical_frames(ev, t0 + chunk[:, None] * dt)
            # du_i/dsig from dt = idempotents^T du
            rhs = np.broadcast_to(dt[:, None], (len(chunk), len(dt), 1))
            udot = np.linalg.solve(np.swapaxes(fr.idempotents, 1, 2), rhs)[..., 0]
            values.append(np.sum(hamiltonians(fr.u, fr.v) * udot, axis=1))
            sigmas.append(chunk)
            jacobians.append(np.linalg.det(fr.idempotents))
            defects.append(float(fr.defect.max()))
        return np.concatenate(values)

    def log_j() -> tuple[complex, np.ndarray, np.ndarray]:
        """1/2 Delta log J^2 through the frames read, and the sigma intervals
        (lo, hi) of the steps that jump."""
        sig = np.concatenate(sigmas)
        order = np.argsort(sig)
        sig, squares = sig[order], np.concatenate(jacobians)[order] ** 2
        ratios = squares[1:] / squares[:-1]
        jumps = np.abs(ratios - 1.0) > 0.7
        return complex(np.log(ratios).sum()) / 2, sig[:-1][jumps], sig[1:][jumps]

    def bisect(panels: np.ndarray, failure: str) -> np.ndarray:
        """Both halves of each panel; NumericError(failure) if a half would
        be narrower than MIN_WIDTH."""
        if len(panels) and np.diff(panels).min() / 2 < MIN_WIDTH:
            raise NumericError(failure)
        halves = np.repeat(panels, 2, axis=0)
        halves[::2, 1] = halves[1::2, 0] = panels.mean(axis=1)
        return halves

    read(np.array([0.0, 1.0]))
    pending = np.array([[0.0, 1.0]])  # panels (a, b) to read
    panels = np.empty((0, 2))  # accepted panels, with their K15 and |K15 - G7|
    k15s = np.empty(0, dtype=complex)
    errors = np.empty(0)
    while len(pending):
        a, b = pending.T
        half = (b - a) / 2
        nodes = (a + half)[:, None] + half[:, None] * _GK_NODES
        values = read(nodes.ravel()).reshape(nodes.shape)
        k15, g7 = (values @ _GK_WEIGHTS.T * half[:, None]).T
        err = np.abs(k15 - g7)
        ok = err <= tol / 4 * (b - a)
        panels = np.concatenate((panels, pending[ok]))
        k15s = np.concatenate((k15s, k15[ok]))
        errors = np.concatenate((errors, err[ok]))
        d_log_j, lo, hi = log_j()
        jumped = ((panels[:, :1] < hi) & (lo < panels[:, 1:])).any(axis=1)
        pending = np.concatenate((
            bisect(pending[~ok], "tau quadrature did not converge at the requested tolerance"),
            bisect(panels[jumped], "log J branch tracking failed; refine the path"),
        ))
        panels, k15s, errors = panels[~jumped], k15s[~jumped], errors[~jumped]
    return GValue(
        tuple(complex(x) for x in t0),
        tuple(complex(x) for x in t1),
        complex(k15s[np.argsort(panels[:, 0])].sum()),
        d_log_j,
        panels=len(panels),
        error=float(errors.sum()),
        frames=sum(len(s) for s in sigmas),
        max_defect=max(defects),
    )
