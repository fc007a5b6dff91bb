#!/usr/bin/env python3
"""Closed-loop tau drift of the isomonodromy flows as a function of tolerance.

Integrates a random n = 3 system around a caustic-free rectangle and prints
the accumulated log tau and the return error of V; both should shrink with
the tolerance since the integrand is a closed form.  Exits 1 when either
exceeds the tolerance of its row, or when the tol 1e-12 row takes
MAX_STEPS_AT_1E12 or more accepted steps (a fifth-order stepper takes 135,
the 8(5,3) pair 27).
"""

import sys

import numpy as np

from frobforge import IsomonodromyState, integrate

MAX_STEPS_AT_1E12 = 135


def main():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    V0 = (A - A.T) / 2
    st = IsomonodromyState.from_matrix([0, 1, 2 + 1j], V0)
    loop = [
        [0.4, 1.0, 2 + 1j],
        [0.4, 1.6, 2 + 1j],
        [0.0, 1.6, 2 + 1j],
        [0.0, 1.0, 2 + 1j],
    ]
    print(f"{'tol':>8}  {'|dlogtau|':>12}  {'|V return|':>12}  {'steps':>6}  {'rej':>4}")
    failed = False
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        traj = integrate(st, loop, tol=tol)
        verr = np.max(np.abs(traj.final_state.v_matrix - V0))
        print(
            f"{tol:8.0e}  {abs(traj.log_tau):12.3e}  {verr:12.3e}  "
            f"{traj.steps:6d}  {traj.rejected:4d}"
        )
        if max(abs(traj.log_tau), verr) > tol:
            print(f"tol {tol:.0e}: the closed loop drifted by more than its tolerance", file=sys.stderr)
            failed = True
    if traj.steps >= MAX_STEPS_AT_1E12:
        print(f"tol 1e-12: {traj.steps} accepted steps, at least {MAX_STEPS_AT_1E12}", file=sys.stderr)
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
