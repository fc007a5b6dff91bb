"""Correctness gates of the benchmark.

Every gate takes a job's result (plus the reference the benchmark made for
it) and returns None when the result is right, or a one-line reason when it
is not.  The references are independent of the code under test wherever a
cheap one exists: literal curve counts, closed forms computed from the
chart's grading data, integer arithmetic of our own for braid invariants,
and exact sign-diagonal search instead of the library's canonical form.
`selfcheck.py` shows that each gate fails on a corrupted result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np

# Kontsevich's counts of rational plane curves through 3d - 1 points.
PLANE_CURVE_COUNTS = (
    1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392,
    19385778269260800,
)

# Classes reached by braid_orbit(..., depth=4) from pd_stokes(d), and from the
# P^2 Gram form carrying its connection matrix.  Orbit sizes are exact
# combinatorial facts; a change in them is a change in the braid action.
ORBIT_SIZES = {2: 46, 3: 373, 4: 1064, "P2+C": 152}

G_TOL = 1e-7
FRAME_TOL = 1e-10
SPECTRUM_TOL = 1e-8
TAU_LOOP_TOL = 1e-6
EIGEN_DRIFT_TOL = 1e-8
COMPAT_TOL = 1e-8


# -- exact layer -------------------------------------------------------------

def curve_counts(numbers) -> str | None:
    want = [Fraction(x) for x in PLANE_CURVE_COUNTS]
    got = [Fraction(x) for x in numbers[: len(want)]]
    if got != want:
        return f"N_1..N_9 = {[str(x) for x in got]}, expected {list(PLANE_CURVE_COUNTS)}"
    return None


def p2_instanton_terms(chart, degree: int) -> str | None:
    """The e^{d t2} part of the P^2 potential is N_d t3^(3d-1) / (3d-1)!."""
    for d in range(1, min(degree, len(PLANE_CURVE_COUNTS)) + 1):
        terms = dict(chart.potential.part(d).terms)
        want = {(0, 0, 3 * d - 1): Fraction(PLANE_CURVE_COUNTS[d - 1], factorial(3 * d - 1))}
        if terms != want:
            return f"degree-{d} instanton term is {terms}, expected {want}"
    return None


def an_chart(chart, n: int) -> str | None:
    """Shape of an A_n chart, and quasihomogeneity checked monomial by monomial
    with the weights (n+2-b)/(n+1), independently of the library's Lie_E."""
    if chart.n != n:
        return f"chart has n = {chart.n}, expected {n}"
    if chart.charge_d != Fraction(n - 1, n + 1):
        return f"charge {chart.charge_d}, expected {Fraction(n - 1, n + 1)}"
    for a in range(n):
        for b in range(n):
            if (chart.eta[a][b] != 0) != (a + b == n - 1):
                return "pairing is not antidiagonal"
    weights = [Fraction(n + 2 - b, n + 1) for b in range(1, n + 1)]
    target = 3 - chart.charge_d
    for exps, _ in chart.potential.items():
        if sum(e * w for e, w in zip(exps, weights)) != target:
            return f"monomial {exps} has weighted degree != {target}"
    if chart.potential.is_zero():
        return "potential is zero"
    return None


def wdvv(report, n: int) -> str | None:
    expected = n * (n - 1) // 2 * n * n
    if not report.passed:
        return f"{len(report.nonzero)} nonzero WDVV residuals"
    if report.checked != expected:
        return f"checked {report.checked} residuals, expected {expected}"
    return None


def axioms(report) -> str | None:
    return None if report.passed else f"axioms violated: {report}"


def central_charge(value, n: int) -> str | None:
    want = Fraction(n * (n + 1) * (n + 2))
    return None if value == want else f"central charge {value}, expected {want}"


def roundtrip(chart, back) -> str | None:
    for field in ("n", "eta", "charge_d", "unity_index", "euler_linear", "euler_const"):
        if getattr(chart, field) != getattr(back, field):
            return f"JSON round trip changed {field}"
    if not (chart.potential == back.potential):
        return "JSON round trip changed the potential"
    return None


def deformed_series(series, order: int, n: int) -> str | None:
    if series.order != order or len(series.matrices) != order + 1:
        return f"series has order {series.order} and {len(series.matrices)} matrices, expected order {order}"
    if any(len(level) != n for level in series.thetas):
        return "series has the wrong number of components"
    return None


def holds(flag, what: str) -> str | None:
    return None if flag is True else f"{what} does not hold"


def omega(table, order: int) -> str | None:
    expected = (order + 1) * (order + 2) // 2
    if table.order != order or len(table.blocks) != expected:
        return f"table has {len(table.blocks)} blocks, expected {expected}"
    return None


# -- numeric layer -----------------------------------------------------------

def scaling_constant(chart) -> Fraction:
    """Closed form of Lie_E G: -tr(mu^2)/4 - (sum of Euler weights - n)/24,
    from the chart's grading matrix and Euler field (-3/8 on P^2, 0 on A_n)."""
    from frobforge.charts import mu_matrix

    n = chart.n
    mu = mu_matrix(chart)
    tr_mu2 = sum(mu[i][j] * mu[j][i] for i in range(n) for j in range(n))
    weight_sum = sum(chart.euler_linear[i][i] for i in range(n))
    return -tr_mu2 / 4 - (weight_sum - n) / 24


def scaling_flow(chart, t, lam: float) -> np.ndarray:
    """Time-lam flow of the (diagonal, affine) Euler field from t."""
    out = np.array(t, dtype=complex)
    for i in range(chart.n):
        if any(chart.euler_linear[i][j] for j in range(chart.n) if j != i):
            raise ValueError("Euler field is not diagonal")
        w = float(chart.euler_linear[i][i])
        c = float(chart.euler_const[i])
        if w:
            out[i] = np.exp(w * lam) * (out[i] + c / w) - c / w
        else:
            out[i] = out[i] + c * lam
    return out


def g_scaling(gvalue, lam: float, expected: Fraction) -> str | None:
    rate = gvalue.delta_g / lam
    err = abs(rate - float(expected))
    if not err < G_TOL:
        return f"dG/lambda = {rate:.3e}, closed form {float(expected):.6f} (|diff| {err:.2e})"
    return None


def frame(fr, eta) -> str | None:
    """Psi^T Psi = eta, recomputed from the returned Psi."""
    defect = float(np.max(np.abs(fr.psi.T @ fr.psi - np.asarray(eta, dtype=float))))
    return None if defect < FRAME_TOL else f"frame defect {defect:.2e}"


def _matched_distance(a, b) -> float:
    """Largest distance after greedily pairing each of a with its nearest
    unused element of b (the sets here are well separated)."""
    left = list(b)
    worst = 0.0
    for x in a:
        k = min(range(len(left)), key=lambda i: abs(left[i] - x))
        worst = max(worst, abs(left.pop(k) - x))
    return worst


def spectrum(u, critical) -> str | None:
    gap = _matched_distance(u, critical)
    return None if gap < SPECTRUM_TOL else f"canonical coordinates miss critical values by {gap:.2e}"


def tau_loop(traj, v0) -> str | None:
    if not abs(traj.log_tau) < TAU_LOOP_TOL:
        return f"closed-loop |d log tau| = {abs(traj.log_tau):.2e}"
    drift = _matched_distance(
        np.linalg.eigvals(traj.final_state.v_matrix), np.linalg.eigvals(v0)
    )
    return None if drift < EIGEN_DRIFT_TOL else f"eigenvalue drift {drift:.2e}"


# -- monodromy layer ---------------------------------------------------------

def _as_int(S):
    out = []
    for row in S:
        r = []
        for x in row:
            x = Fraction(x)
            if x.denominator != 1:
                raise ValueError("Stokes entry is not an integer")
            r.append(x.numerator)
        out.append(r)
    return out


def invariant(S) -> tuple[int, ...]:
    """Power traces tr(M^k), k = 1..n, of M = S^{-T} S in integer arithmetic;
    they fix the characteristic polynomial, a braid-move invariant."""
    A = _as_int(S)
    n = len(A)
    inv = [[0] * n for _ in range(n)]  # inverse of a unit upper triangular matrix
    for j in range(n):
        for i in range(n - 1, -1, -1):
            acc = 1 if i == j else 0
            acc -= sum(A[i][k] * inv[k][j] for k in range(i + 1, n))
            inv[i][j] = acc
    M = [[sum(inv[k][i] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    P = [row[:] for row in M]
    traces = []
    for _ in range(n):
        traces.append(sum(P[i][i] for i in range(n)))
        P = [[sum(P[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(traces)


def unit_upper(S) -> bool:
    n = len(S)
    return all(S[i][i] == 1 and all(S[i][j] == 0 for j in range(i)) for i in range(n))


def sign_equivalent(A, B) -> bool:
    """A = D B D for some D = diag(+-1), by exhaustive search."""
    n = len(A)
    for signs in product((1, -1), repeat=n - 1):
        d = (1,) + signs
        if all(A[i][j] == d[i] * d[j] * B[i][j] for i in range(n) for j in range(n)):
            return True
    return False


def braid_trial(result) -> str | None:
    S, pairs, moves = result
    for k, (A, B) in enumerate(pairs):
        if not sign_equivalent(A, B):
            return f"braid relation {k} fails"
    inv0 = invariant(S)
    for k, S2 in enumerate(moves):
        if not unit_upper(S2):
            return f"move {k} broke triangularity"
        if invariant(S2) != inv0:
            return f"move {k} changed the invariant"
    return None


def orbit(result, key, start) -> str | None:
    if result.truncated or result.size != ORBIT_SIZES[key]:
        return f"orbit has {result.size} classes, expected {ORBIT_SIZES[key]}"
    inv0 = invariant(start)
    for k, (S, _) in enumerate(result.classes):
        if not unit_upper(S) or invariant(S) != inv0:
            return f"orbit class {k} changed the invariant"
    return None


def compatibility(report, control_report) -> str | None:
    """The residual is small, and the perturbed control is caught."""
    if not report.residual < COMPAT_TOL:
        return f"compatibility residual {report.residual:.2e}"
    if control_report.passed:
        return f"perturbed control passed (residual {control_report.residual:.2e})"
    return None
