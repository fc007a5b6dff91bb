#!/usr/bin/env python3
"""Show that every benchmark gate can fail.

For each gate, build a small correct result with the library, check that
the gate passes it, corrupt the result, and check that the gate rejects it.
Also checks that BENCHMARK.json lists exactly the metrics the benchmark
prints.  Exits 1 if any gate passes a corrupted result.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from frobforge import (  # noqa: E402
    ChartEvaluator,
    MultiPoly,
    build_an_chart,
    build_p2_chart,
    canonical_frame,
    check_axioms,
    check_compatibility,
    check_wdvv,
    deformed_flat_coordinates,
    g_function,
    instanton_numbers,
    integrate,
    omega_table,
    pd_connection,
    virasoro_central_charge,
)
from frobforge.monodromy import braid_orbit  # noqa: E402
from frobforge.unfolding import Unfolding, critical_values, flat_coordinates  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

results = []


def expect(name, good, bad):
    """good and bad are gate outcomes: None means pass, a string a failure."""
    ok = good is None and bad is not None
    results.append(ok)
    print(f"[{'ok' if ok else 'BROKEN'}] {name}: correct -> {good or 'pass'}; corrupted -> {bad or 'PASS'}")


def with_extra_term(chart, exps, coeff=1):
    return dataclasses.replace(chart, potential=chart.potential + MultiPoly.monomial(chart.n, exps, coeff))


def main() -> int:
    # exact layer
    counts = instanton_numbers(9)
    expect("curve counts", gates.curve_counts(counts),
           gates.curve_counts(counts[:3] + [counts[3] + 1] + counts[4:]))
    p2 = build_p2_chart(4)
    expect("P2 instanton terms", gates.p2_instanton_terms(p2, 4),
           gates.p2_instanton_terms(dataclasses.replace(p2, potential=p2.potential.scale(2)), 4))
    a3 = build_an_chart(3)
    off_weight = with_extra_term(a3, (0, 0, 4), Fraction(1, 7))
    not_assoc = with_extra_term(a3, (0, 2, 3))
    expect("A_n chart shape", gates.an_chart(a3, 3), gates.an_chart(off_weight, 3))
    expect("WDVV", gates.wdvv(check_wdvv(a3), 3), gates.wdvv(check_wdvv(not_assoc), 3))
    expect("axioms", gates.axioms(check_axioms(a3)), gates.axioms(check_axioms(off_weight)))
    c = virasoro_central_charge(a3)
    expect("central charge", gates.central_charge(c, 3), gates.central_charge(c + 1, 3))
    expect("JSON round trip", gates.roundtrip(a3, workloads._roundtrip(a3)), gates.roundtrip(a3, off_weight))
    series = deformed_flat_coordinates(a3, 3)
    cut = copy.copy(series)
    cut.matrices = series.matrices[:-1]
    expect("deformed series", gates.deformed_series(series, 3, 3), gates.deformed_series(cut, 3, 3))
    expect("pairing identity", gates.holds(True, "pairing"), gates.holds(False, "pairing"))
    table = omega_table(a3, 2, series)
    short = dataclasses.replace(table, blocks=dict(list(table.blocks.items())[:-1]))
    expect("omega table", gates.omega(table, 2), gates.omega(short, 2))

    # numeric layer
    ev = ChartEvaluator(a3)
    t0 = np.array([0.8, 0.9, 0.7]) + 0.1j
    t1 = gates.scaling_flow(a3, t0, 0.25)
    g = g_function(ev, t0, t1, tol=1e-9)
    expected = gates.scaling_constant(a3)
    expect("G scaling closed form", gates.g_scaling(g, 0.25, expected),
           gates.g_scaling(dataclasses.replace(g, d_log_tau=g.d_log_tau + 1e-6), 0.25, expected))
    unf = Unfolding.build(3)
    s = [Fraction(1, 2), Fraction(-3), Fraction(5, 4)]
    t = np.array([complex(p.evaluate(s)) for p in flat_coordinates(unf).t_of_s])
    fr = canonical_frame(ev, t)
    bent = dataclasses.replace(fr, psi=fr.psi * np.array([[1 + 1e-9], [1], [1]]))
    expect("frame defect", gates.frame(fr, a3.eta), gates.frame(bent, a3.eta))
    crit = critical_values(unf, s)
    expect("spectrum vs critical values", gates.spectrum(fr.u, crit),
           gates.spectrum(fr.u + np.array([1e-7, 0, 0]), crit))
    state, path, v0 = workloads._loop(np.random.default_rng(0), 3)
    traj = integrate(state, path, tol=1e-12)
    tau_bad = copy.deepcopy(traj)
    tau_bad.samples[-1].log_tau += 1e-5
    v_bad = copy.deepcopy(traj)
    v_bad.samples[-1].v_upper = tuple(x * (1 + 1e-7) for x in traj.samples[-1].v_upper)
    expect("closed-loop tau", gates.tau_loop(traj, v0), gates.tau_loop(tau_bad, v0))
    expect("eigenvalue drift", gates.tau_loop(traj, v0), gates.tau_loop(v_bad, v0))

    # monodromy layer
    S = [[1, 2, -1, 3], [0, 1, 1, -2], [0, 0, 1, 4], [0, 0, 0, 1]]
    trial = workloads._braid_trial(S)
    A, B = trial[1][0]
    B2 = [row[:] for row in B]
    B2[0][1] += 1
    expect("braid relation", gates.braid_trial(trial),
           gates.braid_trial((S, [(A, B2)] + trial[1][1:], trial[2])))
    M2 = [row[:] for row in trial[2][0]]
    M2[0][3] += 1
    expect("move invariant", gates.braid_trial(trial), gates.braid_trial((S, trial[1], [M2])))
    start = [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    orbit = braid_orbit(start, depth=4)
    fewer = dataclasses.replace(orbit, classes=orbit.classes[:-1])
    changed = copy.deepcopy(orbit)
    changed.classes[5][0][0][2] += 1
    expect("orbit size", gates.orbit(orbit, 2, start), gates.orbit(fewer, 2, start))
    expect("orbit invariant", gates.orbit(orbit, 2, start), gates.orbit(changed, 2, start))
    conn = pd_connection(2)
    c_orbit = braid_orbit(conn.gram(), conn.connection, depth=4, cap=10_000)
    c_bad = copy.deepcopy(c_orbit)
    c_bad.classes[7][1][0, 0] += 1e-4
    expect("orbit compatibility", workloads._orbit_with_connection_check(c_orbit, conn),
           workloads._orbit_with_connection_check(c_bad, conn))
    good = (conn, check_compatibility(conn.monodromy_data()))
    data = conn.monodromy_data()
    data.connection = data.connection.copy()
    data.connection[1, 2] += 1e-6
    expect("compatibility residual", workloads._compatibility_check(good),
           workloads._compatibility_check((conn, check_compatibility(data))))
    blind = gates.compatibility(good[1], check_compatibility(conn.monodromy_data()))
    expect("perturbed control must fail", gates.compatibility(good[1], check_compatibility(data)), blind)

    # BENCHMARK.json lists what run.py prints
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    same = listed == list(tracing.PER_LAYER)
    e2e = [m["name"] for m in spec["end_to_end"]]
    same_e2e = e2e == ["setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"]
    same_w = [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    same_s = spec["run_seconds"] == run.NOMINAL_SECONDS
    results.append(same and same_e2e and same_w and same_s)
    print(f"[{'ok' if results[-1] else 'BROKEN'}] BENCHMARK.json matches the printed metrics")

    print(f"{sum(results)} of {len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
