#!/usr/bin/env python3
"""Build the bundled charts and write them as JSON next to a check summary.

Every chart is checked for WDVV and the axioms before it is written; the
script exits 1 if any check fails.

Usage: python scripts/build_charts.py [outdir]
"""

import json
import pathlib
import sys
import time

from frobforge import build_an_chart, build_p2_chart, check_axioms, check_wdvv, virasoro_central_charge
from frobforge.serialize import chart_to_json


def ok(report) -> str:
    return "ok" if report.passed else "FAIL"


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "charts_out")
    outdir.mkdir(parents=True, exist_ok=True)
    builds = [(f"A{n}", f"a{n}.json", lambda n=n: build_an_chart(n)) for n in range(1, 6)]
    builds += [(f"P2 (degree {d})", f"p2_deg{d}.json", lambda d=d: build_p2_chart(d)) for d in (3, 5)]
    failed = 0
    for name, filename, build in builds:
        t0 = time.perf_counter()
        chart = build()
        wdvv = check_wdvv(chart)
        axioms = check_axioms(chart)
        failed += not (wdvv.passed and axioms.passed)
        path = outdir / filename
        path.write_text(json.dumps(chart_to_json(chart), indent=2) + "\n")
        charge = virasoro_central_charge(chart) if chart.charge_d != 1 else "n/a"
        print(
            f"{name}: d={chart.charge_d}  wdvv={ok(wdvv)}  axioms={ok(axioms)}  "
            f"central charge={charge}  [{time.perf_counter() - t0:.2f}s] -> {path}"
        )
    if failed:
        print(f"{failed} chart(s) failed a check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
