"""The four benchmark workloads.

Each builder does the workload's set-up (charts, evaluators, the seeded
input search, warm-up) and returns the measured job list.  A job calls the
library through its public modules, looked up at call time so that the
tracer's wrappers apply, and names the gate that verifies its result after
the measured phase.  Point searches reject non-semisimple or badly
separated inputs here, never inside the measured phase.  No exact-layer job
repeats its inputs within a run; numeric jobs share one chart per rank, as
real use does.

`scale` multiplies the number of seeded numeric jobs (1.0 at the nominal
run length); the exact job lists are fixed, since more of them would repeat
inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Any, Callable

import numpy as np

from frobforge import (
    charts,
    deformed,
    descendents,
    frames,
    isomonodromy,
    monodromy,
    projective,
    serialize,
    unfolding,
)
from frobforge.errors import SemisimplicityError

import gates


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    facts: Callable[[Any], dict] | None = None


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _keep(store: dict, key, value):
    store[key] = value
    return value


# -- an-exact ------------------------------------------------------------------

def _roundtrip(chart):
    text = json.dumps(serialize.chart_to_json(chart))
    return serialize.chart_from_json(json.loads(text))


def _an_chart_request(n: int) -> dict:
    """Build the A_n chart and run every exact check a user would on it."""
    chart = unfolding.build_an_chart(n)
    return {
        "chart": chart,
        "wdvv": charts.check_wdvv(chart),
        "axioms": charts.check_axioms(chart),
        "central_charge": charts.virasoro_central_charge(chart),
        "json": _roundtrip(chart),
    }


def _an_chart_check(r: dict, n: int) -> str | None:
    return (gates.an_chart(r["chart"], n) or gates.wdvv(r["wdvv"], n)
            or gates.axioms(r["axioms"]) or gates.central_charge(r["central_charge"], n)
            or gates.roundtrip(r["chart"], r["json"]))


def _wdvv_facts(report) -> dict:
    return {"wdvv_checked": report.checked}


def an_exact(rng: random.Random, scale: float) -> list[Job]:
    """A4..A8 chart requests (build, WDVV, axioms, central charge, JSON round
    trip) and the A4 descendent tower.  The inputs are the fixed ranks and
    orders; the seed changes nothing."""
    charts.check_wdvv(unfolding.build_an_chart(3))  # warm-up; A3 is not measured
    made: dict = {}
    jobs = [
        Job("an.chart", f"A{n}",
            lambda n=n: _keep(made, n, _an_chart_request(n)),
            lambda r, n=n: _an_chart_check(r, n),
            lambda r: _wdvv_facts(r["wdvv"]))
        for n in range(4, 9)
    ]
    jobs += [
        Job("deformed.flat", "A4@7",
            lambda: _keep(made, "series", deformed.deformed_flat_coordinates(made[4]["chart"], 7)),
            lambda s: gates.deformed_series(s, 7, 4)),
        Job("deformed.pairing", "A4@7",
            lambda: deformed.pairing_holds(made[4]["chart"], made["series"], 7),
            lambda ok: gates.holds(ok, "pairing identity")),
        Job("descendents.omega", "A4@6",
            lambda: descendents.omega_table(made[4]["chart"], 6, made["series"]),
            lambda t: gates.omega(t, 6)),
    ]
    return jobs


# -- numeric helpers -------------------------------------------------------------

SEARCH_MARGIN = 1e-2  # relative separation of canonical coordinates along a segment
SEGMENT_SAMPLES = 9


def _segment_is_semisimple(ev, t0, t1) -> bool:
    for sig in np.linspace(0.0, 1.0, SEGMENT_SAMPLES):
        try:
            frames.canonical_coordinates(ev, t0 + sig * (t1 - t0), margin=SEARCH_MARGIN)
        except SemisimplicityError:
            return False
    return True


def _scaling_segments(ev, chart, draw, lam: float, count: int, accept=None):
    """Seeded base points and their images under the time-lam Euler flow."""
    out = []
    for _ in range(1000 * count):
        if len(out) == count:
            return out
        t0 = draw()
        t1 = gates.scaling_flow(chart, t0, lam)
        if accept is not None and not (accept(t0) and accept(t1)):
            continue
        if _segment_is_semisimple(ev, t0, t1):
            out.append((t0, t1))
    raise RuntimeError(f"point search found {len(out)} of {count} segments")


AN_LAMBDA = 0.25
P2_LAMBDA = 0.2
G_TOL = 1e-9


def _g_job(ev, label, t0, t1, lam, expected) -> Job:
    return Job(
        "isomonodromy.g", label,
        lambda: isomonodromy.g_function(ev, t0, t1, tol=G_TOL),
        lambda g: gates.g_scaling(g, lam, expected),
    )


# -- qh-series -------------------------------------------------------------------

def _p2_tail(t) -> float:
    """Size bound of the first dropped term of the P^2@8 potential, the
    degree-9 instanton term, and its t3-derivatives up to third order."""
    q = np.exp(9 * t[1].real)
    x = abs(t[2])
    top = 26
    acc = sum(comb(3, j) * perm(top, j) * x ** (top - j) * 9 ** (3 - j) for j in range(4))
    return gates.PLANE_CURVE_COUNTS[8] * q * acc / factorial(top)


# More G calls than frames, so that job_p50_ms falls inside the block of G
# calls rather than on its seed-dependent lower edge.
P2_G_POINTS = 40
P2_FRAME_POINTS = 20


def qh_series(rng: random.Random, scale: float) -> list[Job]:
    """P^2 through ExpSeries: counts, chart checks, descendents, frames and G."""
    p2_8 = projective.build_p2_chart(8)
    ev = frames.ChartEvaluator(p2_8)
    p2_5 = projective.build_p2_chart(5)
    np_rng = np.random.default_rng(rng.getrandbits(64))

    def draw():
        centre = np.array([0.3, -2.0, 0.5])
        return centre + 0.3 * np_rng.standard_normal(3) + 0.2j * np_rng.standard_normal(3)

    segments = _scaling_segments(
        ev, p2_8, draw, P2_LAMBDA, _count(P2_G_POINTS, scale), accept=lambda t: _p2_tail(t) < 1e-12
    )
    frames.canonical_frame(ev, segments[0][0] + 0.01)  # warm-up
    expected = gates.scaling_constant(p2_8)
    made: dict = {}
    jobs = [
        Job("projective.instanton", "N<=12", lambda: projective.instanton_numbers(12),
            gates.curve_counts),
        Job("projective.chart", "P2@12",
            lambda: _keep(made, "p2", projective.build_p2_chart(12)),
            lambda c: gates.p2_instanton_terms(c, 12)),
        Job("charts.wdvv", "P2@12", lambda: charts.check_wdvv(made["p2"]),
            lambda r: gates.wdvv(r, 3), _wdvv_facts),
        Job("charts.axioms", "P2@12", lambda: charts.check_axioms(made["p2"]), gates.axioms),
        Job("deformed.flat", "P2@5/8",
            lambda: _keep(made, "series", deformed.deformed_flat_coordinates(p2_5, 8)),
            lambda s: gates.deformed_series(s, 8, 3)),
        Job("deformed.pairing", "P2@5/8",
            lambda: deformed.pairing_holds(p2_5, made["series"], 8),
            lambda ok: gates.holds(ok, "pairing identity")),
        Job("descendents.omega", "P2@5/7",
            lambda: descendents.omega_table(p2_5, 7, made["series"]),
            lambda t: gates.omega(t, 7)),
    ]
    for k, (t0, t1) in enumerate(segments):
        label = f"P2@8#{k}"
        if k < _count(P2_FRAME_POINTS, scale):
            jobs.append(Job("frames.frame", label, lambda t0=t0: frames.canonical_frame(ev, t0),
                            lambda fr: gates.frame(fr, p2_8.eta)))
        jobs.append(_g_job(ev, label, t0, t1, P2_LAMBDA, expected))
    return jobs


# -- an-numeric ------------------------------------------------------------------

# Job counts at scale 1.  The order statistics land inside blocks of like
# jobs, not on a seed-dependent boundary between them: job_p50_ms falls
# among the 40 A5 G calls, and with 6 A8 calls the tail (ten jobs beyond it)
# among the 24 A7 G calls.
G_COUNTS = {3: 12, 5: 40, 7: 24, 8: 6}
A3_FRAME_POINTS = 40
FRAMES_PER_JOB = 5
LOOPS_PER_RANK = 6
LOOP_TOL = 1e-12


def _rational_a3_points(ev, rng: random.Random, count: int):
    """Rational s with distinct, well separated critical values; returns the
    flat point t(s) and the critical values as the frame reference."""
    unf = unfolding.Unfolding.build(3)
    fc = unfolding.flat_coordinates(unf)
    seen = set()
    out = []
    for _ in range(1000 * count):
        if len(out) == count:
            return out
        s = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if s in seen:
            continue
        seen.add(s)
        t = np.array([complex(p.evaluate(s)) for p in fc.t_of_s])
        try:
            frames.canonical_coordinates(ev, t, margin=SEARCH_MARGIN)
        except SemisimplicityError:
            continue
        out.append((t, unfolding.critical_values(unf, list(s))))
    raise RuntimeError(f"point search found {len(out)} of {count} A3 points")


def _loop(np_rng, n: int):
    """Random skew V0 and a closed four-leg u-loop along which no difference
    u_i - u_j can wind around 0 (each moves less than its initial size)."""
    while True:
        u0 = np.arange(n) + 0.3 * np_rng.standard_normal(n) + 0.3j * np_rng.standard_normal(n)
        d = 0.4 * np.exp(2j * np.pi * np_rng.random(n))
        mask = np_rng.random(n) < 0.5
        if mask.all() or not mask.any():
            continue
        legs = [d * mask, d, d * ~mask]
        sep = min(abs(u0[i] - u0[j]) for i in range(n) for j in range(i + 1, n))
        move = max(abs(w[i] - w[j]) for w in legs for i in range(n) for j in range(i + 1, n))
        if move < 0.7 * sep:
            break
    a = np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
    v0 = (a - a.T) / 2
    state = isomonodromy.IsomonodromyState.from_matrix(u0, v0)
    return state, [u0 + w for w in legs] + [u0], v0


def _ode_facts(traj) -> dict:
    return {"ode_steps": traj.steps, "ode_rejected": traj.rejected}


def an_numeric(rng: random.Random, scale: float) -> list[Job]:
    """G along the scaling flow on A3/A5/A7/A8, A3 frames against critical
    values, and closed isomonodromy loops for n = 3..6."""
    np_rng = np.random.default_rng(rng.getrandbits(64))
    jobs = []
    evaluators = {}
    for n, base_count in G_COUNTS.items():
        chart = unfolding.build_an_chart(n)
        ev = evaluators[n] = frames.ChartEvaluator(chart)

        def draw(n=n):
            return np.ones(n) * 0.8 + 0.3 * np_rng.standard_normal(n) + 0.15j * np_rng.standard_normal(n)

        segments = _scaling_segments(ev, chart, draw, AN_LAMBDA, _count(base_count, scale))
        frames.canonical_frame(ev, segments[0][0] * 1.01)  # warm-up
        expected = gates.scaling_constant(chart)
        jobs += [
            _g_job(ev, f"A{n}#{k}", t0, t1, AN_LAMBDA, expected)
            for k, (t0, t1) in enumerate(segments)
        ]
    a3 = evaluators[3]
    points = _rational_a3_points(a3, rng, _count(A3_FRAME_POINTS, scale))

    def frame_check(frs, batch):
        for fr, (_, critical) in zip(frs, batch):
            err = gates.frame(fr, a3.chart.eta) or gates.spectrum(fr.u, critical)
            if err:
                return err
        return None

    for k in range(0, len(points), FRAMES_PER_JOB):
        batch = points[k:k + FRAMES_PER_JOB]
        jobs.append(Job(
            "frames.frame", f"A3#{k}-{k + len(batch) - 1}",
            lambda batch=batch: [frames.canonical_frame(a3, t) for t, _ in batch],
            lambda frs, batch=batch: frame_check(frs, batch),
        ))
    for n in range(3, 7):
        for k in range(_count(LOOPS_PER_RANK, scale)):
            state, path, v0 = _loop(np_rng, n)
            jobs.append(Job(
                "isomonodromy.integrate", f"n{n}#{k}",
                lambda state=state, path=path: isomonodromy.integrate(state, path, tol=LOOP_TOL),
                lambda traj, v0=v0: gates.tau_loop(traj, v0), _ode_facts,
            ))
    return jobs


# -- braid-orbit -----------------------------------------------------------------

ORBIT_DEPTH = 4
ORBIT_CAP = 100_000
BRAID_TRIALS = 34  # jobs of six random Stokes matrices, two each of n = 3, 4, 5
PERTURBATION = 1e-3


def _braid_trial(S):
    n = len(S)
    pairs = [
        (monodromy.braid_word(S, None, (i, i + 1, i))[0],
         monodromy.braid_word(S, None, (i + 1, i, i + 1))[0])
        for i in range(1, n - 1)
    ]
    pairs += [
        (monodromy.braid_word(S, None, (i, j))[0], monodromy.braid_word(S, None, (j, i))[0])
        for i in range(1, n) for j in range(i + 2, n)
    ]
    moves = [
        monodromy.braid_act(S, None, i, inverse=inv)[0]
        for i in range(1, n) for inv in (False, True)
    ]
    return S, pairs, moves


def _compatibility_check(result) -> str | None:
    conn, report = result
    control = conn.monodromy_data()
    c = control.connection.copy()
    c[0, 0] += PERTURBATION
    control.connection = c
    return gates.compatibility(report, monodromy.check_compatibility(control))


def _orbit_with_connection_check(orbit, conn) -> str | None:
    """Class sizes and invariants, and the compatibility identity carried by
    every (S, C) in the orbit: (C K)^T X (C K) = K S K for symmetric K."""
    err = gates.orbit(orbit, "P2+C", conn.gram())
    if err:
        return err
    data = conn.monodromy_data()
    for k, (S, C) in enumerate(orbit.classes):
        data.stokes, data.connection = S, C
        report = monodromy.check_compatibility(data)
        if not report.residual < gates.COMPAT_TOL:
            return f"orbit class {k} breaks compatibility ({report.residual:.2e})"
    return None


def _orbit_facts(orbit) -> dict:
    return {"orbit_classes": orbit.size, "orbit_new_classes": orbit.size - 1}


def braid_orbit(rng: random.Random, scale: float) -> list[Job]:
    """P^d connection data and compatibility, braid orbits of the P^d Stokes
    matrices (one carrying an mpmath C), and seeded braid-relation trials."""
    monodromy.braid_orbit(projective.pd_stokes(1), depth=2)  # warm-up; P1 is not measured
    stokes = {d: projective.pd_stokes(d) for d in (2, 3, 4)}
    trials = [
        [
            [[1 if i == j else (rng.randint(-4, 4) if j > i else 0) for j in range(n)]
             for i in range(n)]
            for n in (3, 4, 5, 3, 4, 5)
        ]
        for _ in range(_count(BRAID_TRIALS, scale))
    ]
    made: dict = {}
    jobs = []
    for d in range(1, 5):
        jobs += [
            Job("monodromy.connection", f"P{d}",
                lambda d=d: _keep(made, d, monodromy.pd_connection(d)),
                lambda c, d=d: None if c.connection.rows == d + 1 else "wrong size"),
            Job("monodromy.compat", f"P{d}",
                lambda d=d: (made[d], monodromy.check_compatibility(made[d].monodromy_data())),
                _compatibility_check,
                lambda r: {"compat_residual": r[1].residual}),
        ]
    for d, S in stokes.items():
        jobs.append(Job(
            "monodromy.orbit", f"P{d}",
            lambda S=S: monodromy.braid_orbit(S, depth=ORBIT_DEPTH, cap=ORBIT_CAP),
            lambda o, d=d, S=S: gates.orbit(o, d, S), _orbit_facts,
        ))
    jobs.append(Job(
        "monodromy.orbit", "P2+C",
        lambda: monodromy.braid_orbit(
            made[2].gram(), made[2].connection, depth=ORBIT_DEPTH, cap=ORBIT_CAP),
        lambda o: _orbit_with_connection_check(o, made[2]), _orbit_facts,
    ))
    for k, group in enumerate(trials):
        jobs.append(Job(
            "monodromy.braid_trial", f"#{k}",
            lambda group=group: [_braid_trial(S) for S in group],
            lambda results: next(filter(None, map(gates.braid_trial, results)), None),
        ))
    return jobs


WORKLOADS = {
    "an-exact": an_exact,
    "qh-series": qh_series,
    "an-numeric": an_numeric,
    "braid-orbit": braid_orbit,
}
