#!/usr/bin/env python3
"""Scaling derivative of the G-function across random base points.

For the unfolding charts the increment of G along the scaling flow is a
point-independent constant (here it comes out zero: the tau and Jacobian
parts cancel, log tau = (1/24) log J up to a constant on these charts).  The
scan prints the measured per-unit-flow increments and their spread, the
median count of accepted quadrature panels and of frames read per G call, and
exits 1 when a rank finds fewer than POINTS base points whose G converges.
"""

import sys

import numpy as np

from frobforge import ChartEvaluator, build_an_chart, g_function
from frobforge.errors import FrobforgeError

POINTS = 8


def main() -> int:
    status = 0
    for n in (2, 3):
        chart = build_an_chart(n)
        ev = ChartEvaluator(chart)
        weights = [float(chart.euler_linear[i][i]) for i in range(n)]
        rng = np.random.default_rng(1)
        lam = 0.25
        vals, panels, frames = [], [], []
        tries = 0
        while len(vals) < POINTS and tries < 100:
            tries += 1
            base = np.ones(n) * 0.8 + 0.3 * rng.standard_normal(n) + 0.15j * rng.standard_normal(n)
            target = np.array([np.exp(w * lam) for w in weights]) * base
            try:
                gv = g_function(ev, base, target, tol=1e-9)
            except FrobforgeError:
                continue
            vals.append(gv.delta_g / lam)
            panels.append(gv.panels)
            frames.append(gv.frames)
        vals = np.array(vals)
        print(
            f"A{n}: scaling dG/dlambda over {len(vals)} base points: "
            f"mean={np.mean(vals):+.3e}  std={np.std(vals):.3e}  "
            f"median panels={np.median(panels):g}  median frames={np.median(frames):g}"
        )
        if len(vals) < POINTS:
            print(f"A{n}: only {len(vals)} of {POINTS} base points converged", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
