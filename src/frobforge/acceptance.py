"""Acceptance suite: thirteen numbered criteria with pinned tolerances.

Each criterion is a standalone function returning a CriterionResult; the
pytest suite asserts them one by one and the CLI ``selftest`` prints one
pass/fail line per criterion.  Randomized criteria take a seed (default 0)
and are deterministic given it.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .charts import check_wdvv, virasoro_central_charge
from .deformed import deformed_flat_coordinates, pairing_holds
from .descendents import flow_commutator_jets, hierarchy_flow, omega_table
from .errors import FrobforgeError, NumericError, SemisimplicityError, ValidationError
from .frames import ChartEvaluator, canonical_coordinates, canonical_frames
from .isomonodromy import IsomonodromyState, g_function, integrate
from .linalg import is_constant_multiple
from .monodromy import (
    braid_act,
    braid_word,
    check_compatibility,
    pd_monodromy,
    sign_canonical,
    stokes_monodromy_invariant,
)
from .projective import build_p2_chart, instanton_numbers, pd_stokes
from .unfolding import Unfolding, build_an_chart, critical_values, flat_coordinates


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} - {self.name}: {self.detail}"


_an = functools.cache(build_an_chart)


def _random_semisimple_points(seed: int, count: int = 20):
    """Rational A_3 points with distinct Euler eigenvalues, via seeded search."""
    chart = _an(3)
    unf = Unfolding.build(3)
    fc = flat_coordinates(unf)
    ev = ChartEvaluator(chart)
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 100 * count:
            raise NumericError("could not find enough semisimple sample points")
        s = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(3)
        ]
        t = [complex(p.evaluate(s)) for p in fc.t_of_s]
        try:
            u = canonical_coordinates(ev, t)
        except SemisimplicityError:
            continue
        points.append((s, t, u))
    return chart, unf, ev, points


def criterion_1(seed: int = 0) -> CriterionResult:
    details = []
    ok = True
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        chart = build_an_chart(n)
        report = check_wdvv(chart)
        dt = time.perf_counter() - t0
        ok = ok and report.passed and dt < 10.0
        details.append(f"n={n}: residuals zero={report.passed} in {dt:.2f}s")
    return CriterionResult(1, "unfolding charts satisfy associativity exactly", ok, "; ".join(details))


def criterion_2(seed: int = 0) -> CriterionResult:
    expected = [1, 1, 12, 620, 87304]
    nums = instanton_numbers(5)
    chart = build_p2_chart(5)
    report = check_wdvv(chart)
    ok = nums == [Fraction(x) for x in expected] and report.passed
    return CriterionResult(
        2,
        "P2 curve counts through degree 5",
        ok,
        f"N = {[int(x) for x in nums]}, truncated residuals zero = {report.passed}",
    )


def criterion_3(seed: int = 0) -> CriterionResult:
    got = pd_stokes(2)
    expected = [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    return CriterionResult(3, "P2 Stokes matrix", got == expected, f"pd_stokes(2) = {got}")


def criterion_4(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed)
    failures = []
    for trial in range(50):
        n = rng.randint(2, 5)
        S = [
            [1 if i == j else (rng.randint(-4, 4) if j > i else 0) for j in range(n)]
            for i in range(n)
        ]
        inv0 = stokes_monodromy_invariant(S)

        def canon(M):
            return tuple(tuple(r) for r in sign_canonical(M)[0])

        for i in range(1, n - 1):
            A, _ = braid_word(S, None, (i, i + 1, i))
            B, _ = braid_word(S, None, (i + 1, i, i + 1))
            if canon(A) != canon(B):
                failures.append(f"trial {trial}: braid relation at i={i}")
        for i in range(1, n):
            for j in range(i + 2, n):
                A, _ = braid_word(S, None, (i, j))
                B, _ = braid_word(S, None, (j, i))
                if canon(A) != canon(B):
                    failures.append(f"trial {trial}: far commutation ({i},{j})")
        for i in range(1, n):
            for invflag in (False, True):
                S2, _ = braid_act(S, None, i, inverse=invflag)
                for r in range(n):
                    if S2[r][r] != 1 or any(S2[r][c] != 0 for c in range(r)):
                        failures.append(f"trial {trial}: triangularity broken")
                det = Fraction(1)
                for r in range(n):
                    det *= S2[r][r]
                if det != 1:
                    failures.append(f"trial {trial}: det changed")
                if stokes_monodromy_invariant(S2) != inv0:
                    failures.append(f"trial {trial}: char poly changed")
    ok = not failures
    detail = "50 random S, n<=5: relations, commutation and invariants exact" if ok else "; ".join(failures[:3])
    return CriterionResult(4, "braid relations and move invariants", ok, detail)


def criterion_5(seed: int = 0) -> CriterionResult:
    chart, unf, ev, points = _random_semisimple_points(seed)
    worst = 0.0
    for s, t, u in points:
        cv = critical_values(unf, s)
        cv_sorted = sorted(cv, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        u_sorted = sorted(u, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        worst = max(worst, max(abs(a - b) for a, b in zip(u_sorted, cv_sorted)))
    ok = worst < 1e-8
    return CriterionResult(
        5, "Euler spectrum equals critical values (A3, 20 points)", ok,
        f"max multiset mismatch {worst:.2e} (tol 1e-8)",
    )


def _jacobian_residual(fr, c: complex) -> float:
    """min |J -+ c prod psi_{i1}|: the Jacobian identity with constant c."""
    target = c * complex(np.prod(fr.psi1))
    return min(abs(fr.J - target), abs(fr.J + target))


def criterion_6(seed: int = 0) -> CriterionResult:
    """Frame identities: Psi^T Psi = eta, spec V = spec mu, J = +-c prod psi_{i1}.

    With psi_{i1}^2 = <pi_i, pi_i> and J = det(dt^a/du_i), Psi^T Psi = eta
    gives det(eta) J^2 = (prod psi_{i1})^2 exactly, so the Jacobian identity
    carries the constant c = (det eta)^(-1/2); for det eta = 1 it is the
    literal J = +- prod psi_{i1}.  A copy of one frame with one Jacobian row
    scaled by 1 + 1e-3 must fail the clause.
    """
    chart, unf, ev, points = _random_semisimple_points(seed)
    eta = np.array([[float(x) for x in row] for row in chart.eta])
    c = 1 / np.sqrt(complex(np.linalg.det(eta)))
    worst_psi, worst_spec, worst_j = 0.0, 0.0, 0.0
    ratios = set()
    frames = list(canonical_frames(ev, [t for s, t, u in points]))
    for fr in frames:
        worst_psi = max(worst_psi, float(np.max(np.abs(fr.psi.T @ fr.psi - eta))))
        spec_v = sorted(np.linalg.eigvals(fr.v), key=lambda z: (z.real, z.imag))
        spec_mu = sorted((float(m) for m in ev.mu_diag))
        worst_spec = max(
            worst_spec, max(abs(a - b) for a, b in zip(spec_v, spec_mu))
        )
        worst_j = max(worst_j, _jacobian_residual(fr, c))
        ratio = fr.J / complex(np.prod(fr.psi1))
        ratios.add(complex(round(ratio.real, 6) + 0.0, round(ratio.imag, 6) + 0.0))
    scaled = frames[0].idempotents.copy()
    scaled[0] *= 1 + 1e-3
    control = _jacobian_residual(replace(frames[0], idempotents=scaled), c)
    ok = worst_psi < 1e-10 and worst_spec < 1e-8 and worst_j < 1e-8 and control >= 1e-8
    detail = (
        f"Psi^T Psi - eta: {worst_psi:.2e} (tol 1e-10); spec(V) vs mu: {worst_spec:.2e} "
        f"(tol 1e-8); min |J -+ c prod psi|: {worst_j:.2e} (tol 1e-8) with "
        f"c = (det eta)^(-1/2) = {c:.6g}; measured J/prod psi in "
        f"{sorted(str(r) for r in ratios)}; perturbed-Jacobian control residual "
        f"{control:.2e} {'fails as required' if control >= 1e-8 else 'passes but must fail'}"
    )
    return CriterionResult(6, "frame identities at the same 20 points", ok, detail)


def criterion_7(seed: int = 0) -> CriterionResult:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    V0 = (A - A.T) / 2
    u0 = [0.0, 1.0, 2.0 + 1.0j]
    st = IsomonodromyState.from_matrix(u0, V0)

    path = [[0.3, 1.2, 2.1 + 1.0j], [0.5, 1.4, 1.8 + 0.6j], [0.1, 0.9, 2.2 + 0.8j], [-0.2, 1.1, 2.4 + 1.2j]]
    traj = integrate(st, path, tol=1e-10)
    e0 = sorted(np.linalg.eigvals(V0), key=lambda z: (round(z.real, 6), z.imag))
    e1 = sorted(
        np.linalg.eigvals(traj.final_state.v_matrix),
        key=lambda z: (round(z.real, 6), z.imag),
    )
    drift = max(abs(a - b) for a, b in zip(e0, e1))

    loop = [[0.4, 1.0, 2.0 + 1.0j], [0.4, 1.6, 2.0 + 1.0j], [0.0, 1.6, 2.0 + 1.0j], [0.0, 1.0, 2.0 + 1.0j]]
    traj_loop = integrate(st, loop, tol=1e-9)
    tau_drift = abs(traj_loop.log_tau)

    shift = [[1.0, 2.0, 3.0 + 1.0j]]
    traj_shift = integrate(st, shift, tol=1e-10)
    trans = float(np.max(np.abs(traj_shift.final_state.v_matrix - V0)))

    ok = drift < 1e-8 and tau_drift < 1e-6 and trans < 1e-9
    return CriterionResult(
        7, "isomonodromy conservation laws (n=3)", ok,
        f"eigen drift {drift:.2e} (tol 1e-8); loop dlogtau {tau_drift:.2e} (tol 1e-6); "
        f"translation drift {trans:.2e} (tol 1e-9)",
    )


def criterion_8(seed: int = 0) -> CriterionResult:
    chart = _an(3)
    ev = ChartEvaluator(chart)
    rng = np.random.default_rng(seed)
    worst_unity = 0.0
    for _ in range(5):
        base = np.array([0.3, 0.5, 1.2]) + 0.2 * rng.standard_normal(3) + 0.1j * rng.standard_normal(3)
        target = base + np.array([0.4, 0, 0])
        gv = g_function(ev, base, target, tol=1e-9)
        worst_unity = max(worst_unity, abs(gv.delta_g))
    weights = [1.0, 0.75, 0.5]
    lam = 0.25
    vals = []
    for _ in range(10):
        base = np.array([0.3, 0.5, 1.2]) + 0.2 * rng.standard_normal(3) + 0.1j * rng.standard_normal(3)
        target = np.array([np.exp(w * lam) for w in weights]) * base
        gv = g_function(ev, base, target, tol=1e-9)
        vals.append(gv.delta_g / lam)
    std = float(np.std(np.array(vals)))
    ok = worst_unity < 1e-8 and std < 1e-6
    return CriterionResult(
        8, "G-function: unity invariance and scaling constancy (A3)", ok,
        f"max |dG| along unity: {worst_unity:.2e} (tol 1e-8); "
        f"Lie_E G sample std over 10 points: {std:.2e} (tol 1e-6), mean {np.mean(vals):.2e}",
    )


def criterion_9(seed: int = 0) -> CriterionResult:
    details = []
    ok = True
    for n in range(2, 6):
        c = virasoro_central_charge(_an(n))
        expect = Fraction(n * (n + 1) * (n + 2))
        ok = ok and c == expect
        details.append(f"n={n}: {c} (expect {expect})")
    return CriterionResult(9, "central charge matches the reflection-group value", ok, "; ".join(details))


def criterion_10(seed: int = 0) -> CriterionResult:
    details = []
    ok = True
    for name, chart in (("A2", _an(2)), ("A3", _an(3)), ("P2@3", build_p2_chart(3))):
        series = deformed_flat_coordinates(chart, 7)
        pairing = pairing_holds(chart, series, 6)
        try:
            omega_table(chart, 6, series)
            division = True
        except FrobforgeError:
            division = False
        ok = ok and pairing and division
        details.append(f"{name}: pairing={pairing}, division={division}")
    return CriterionResult(10, "pairing identity through order 6 and exact (z+w)-division", ok, "; ".join(details))


def criterion_11(seed: int = 0) -> CriterionResult:
    data = pd_monodromy(1, dps=30)
    rep = check_compatibility(data)
    bad = pd_monodromy(1, dps=30)
    C = bad.connection.copy()
    C[0, 0] = C[0, 0] + 1e-3
    bad.connection = C
    rep_bad = check_compatibility(bad)
    ok = rep.passed and not rep_bad.passed
    return CriterionResult(
        11, "P1 monodromy compatibility at 30 digits", ok,
        f"residual {rep.residual:.2e} (tol 1e-8); perturbed control residual "
        f"{rep_bad.residual:.2e} "
        f"{'fails as required' if not rep_bad.passed else 'passes but must fail'}",
    )


def criterion_12(seed: int = 0) -> CriterionResult:
    chart = _an(2)
    series = deformed_flat_coordinates(chart, 4)
    labels = [(al, p) for p in range(3) for al in (1, 2)]
    flows = {lab: hierarchy_flow(chart, lab[0], lab[1], series) for lab in labels}
    sym_fail = []
    for idx, la in enumerate(labels):
        for lb in labels[idx + 1:]:
            comm = flow_commutator_jets(flows[la], flows[lb])
            if any(not entry.is_zero() for entry in comm):
                sym_fail.append(f"{la} vs {lb}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    pair_list = [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    for _ in range(20):
        t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tx = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        txx = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        jet = list(t) + list(tx) + list(txx)
        for la, lb in pair_list:
            comm = flow_commutator_jets(flows[la], flows[lb])
            val = max(abs(complex(e.evaluate(jet))) for e in comm)
            worst = max(worst, val)
    ok = not sym_fail and worst < 1e-9
    return CriterionResult(
        12, "hierarchy flows with p <= 2 commute on the A2 chart", ok,
        f"symbolic commutators all zero: {not sym_fail}; numeric max on 20 jets {worst:.2e} (tol 1e-9)",
    )


def criterion_13(seed: int = 0) -> CriterionResult:
    from .charts import intersection_form

    chart = _an(2)
    det_g = intersection_form(chart).determinant
    unf = Unfolding.build(2)
    fc = flat_coordinates(unf)
    s1, s2 = fc.s_of_t
    disc = s1**3 * Fraction(-4) + s2**2 * Fraction(-27)
    ratio = is_constant_multiple(det_g, disc)
    ok = ratio is not None and ratio != 0
    return CriterionResult(
        13, "intersection-form determinant is the discriminant (A2)", ok,
        f"det g = ({ratio}) * disc(x^3 + s1 x + s2) exactly" if ok else "no constant ratio",
    )


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_criteria(numbers=None, seed: int = 0) -> list[CriterionResult]:
    """Run the numbered criteria (default all); a number outside 1..13 is a
    ValidationError raised before any criterion runs."""
    chosen = numbers or range(1, len(ALL_CRITERIA) + 1)
    bad = [k for k in chosen if not 1 <= k <= len(ALL_CRITERIA)]
    if bad:
        raise ValidationError(f"criterion numbers must lie in 1..{len(ALL_CRITERIA)}, got {bad}")
    return [ALL_CRITERIA[k - 1](seed) for k in chosen]
