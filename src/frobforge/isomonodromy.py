"""Isomonodromy flows on skew matrices, tau quadrature, and the G-function.

The flows del_i V = [V_i, V] (V_i solving [U, V_i] = [E_i, V]) preserve the
spectrum of V and the monodromy of the underlying connection; along a path in
u-space the log tau increment is the quadrature of the closed 1-form

    d log tau = sum_i H_i du_i,     H_i = 1/2 sum_{j != i} V_ij^2 / (u_i - u_j).

Both are evaluated in one closed form: with R_jk = V_jk / (u_j - u_k),
sum_i du_i V_i = R o (du_j - du_k) and H_i = 1/2 sum_j V_ij R_ij, so no V_i
is built (``frames.vi_matrices`` builds them for the tests that check this
form).  ``flow_rhs`` and every step of ``integrate`` first require the u_i
to be DEFAULT_MARGIN * max|u| apart.  Free integration steps the strict
upper triangle of V (skewness is exact by representation) and log tau with
the embedded Dormand-Prince 8(5,3) pair, each leg of the path starting from
the previous leg's last free step.  Chart-driven evaluation recomputes V
from frames instead of evolving it, which is what the G-function

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


# Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, 2nd
# ed. 1993, II.10; the coefficients of their DOP853): nodes c and rows of A
# for the 12 stages, then the end-point stage f(s + h, y + h b.k) at c = 1,
# which is the first stage of the next step.  b is the 8th-order solution;
# E5 and E3 are b minus a 5th- and a 3rd-order solution, over the 12 stages
# and the end-point stage (whose weight is zero in both).
_C = np.array((
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0, 1.0,
))
_A = tuple(np.array(row) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
))
_B = np.array((
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
))
_E5 = np.array((
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
))
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
_ERRORS = np.array((_E5[:12], _E3[:12]))  # the end-point stage weighs nothing in either
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError in the step instead
def integrate(state0: IsomonodromyState, path, tol: float = 1e-10) -> IsomonodromyTrajectory:
    """Integrate dV = sum_i [V_i, V] du_i along a piecewise-linear u-path.

    ``path`` is a sequence of u-waypoints continuing from state0.u; a first
    waypoint exactly equal to state0.u is skipped, and any other is the end
    of a first leg, however short.  log tau accumulates through the same
    steps of the 8(5,3) pair, whose local error is held below ``tol`` (finite,
    > 0) times max(1, |y|).  The first leg starts at a tenth of its length;
    every later leg starts at the u-distance of the previous leg's last free
    step (the one before it was clipped to reach the waypoint), capped at the
    whole leg.  The state (n >= 1) and every waypoint must be finite with n
    components, which is checked before any step.  A step that would bring two
    u_i within DEFAULT_MARGIN * max|u| raises SemisimplicityError; a
    non-finite stage or error estimate, and more than MAX_STEPS steps, raise
    NumericError."""
    require_positive(tol, "tol")
    n = state0.n
    if n < 1:
        raise ValidationError("a state needs at least one coordinate u_i, got n = 0")
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

    reach = None  # u-distance of the previous leg's last free (unclipped) step
    for seg in range(len(waypoints) - 1):
        ua, ub = waypoints[seg], waypoints[seg + 1]
        du = ub - ua
        length = float(np.abs(du).max())

        def rhs(s: float, yv: np.ndarray) -> np.ndarray:
            dV, dtau = _directional_flow(ua + s * du, skew_from_upper(n, yv[:n_upper]), du)
            return np.concatenate((dV[upper], [dtau]))

        s = 0.0
        if reach is None:
            h = 0.1
        else:
            h = min(1.0, reach / length) if length else 1.0
        k0 = None  # f(s, y): the end-point stage of the last accepted step
        while s < 1.0:
            if traj.steps + traj.rejected > MAX_STEPS:
                raise NumericError("step limit exceeded")
            free = h
            h = min(h, 1.0 - s)
            if h < 1e-14:
                raise NumericError("step-size underflow (likely near a caustic)")
            _require_separated(ua + (s + h) * du, DEFAULT_MARGIN, "path hits a caustic")
            if k0 is None:
                k0 = rhs(s, y)
            y_new, err = _dop853_step(rhs, s, y, h, k0)
            scale = max(1.0, float(np.max(np.abs(y_new))))
            if err <= tol * scale:
                s += h
                y, k0 = y_new, None
                traj.steps += 1
                record(seg + s, ua + s * du, y)
            else:
                traj.rejected += 1
            factor = 0.9 * (tol * scale / err) ** 0.125 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        if length:
            reach = free * length
    return traj


def _dop853_step(f, s: float, y: np.ndarray, h: float, k0: np.ndarray) -> tuple[np.ndarray, float]:
    """One step of the 8(5,3) pair for y' = f(s, y) from (s, y), given its
    first stage k0 = f(s, y): the 8th-order y(s + h) and Hairer's combined
    error estimate h e5^2 / sqrt(e5^2 + 0.01 e3^2), with e5 = max|E5.k| and
    e3 = max|E3.k|.  A non-finite stage or estimate raises NumericError."""
    k = np.empty((12, len(y)), dtype=y.dtype)
    k[0] = k0
    for i in range(1, 12):
        k[i] = f(s + _C[i] * h, y + h * (_A[i] @ k[:i]))
    y_new = y + h * (_B @ k)
    e5, e3 = np.abs(_ERRORS @ k).max(axis=1)
    norm = e5 * e5 + 0.01 * e3 * e3
    err = h * e5 * e5 / np.sqrt(norm) if norm > 0 else 0.0
    if not (np.isfinite(k).all() and np.isfinite(err)):
        raise NumericError(
            f"the right-hand side overflowed: a non-finite stage or error estimate "
            f"in the step from s = {s:.6g} of length {h:.3g}"
        )
    return y_new, float(err)


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
