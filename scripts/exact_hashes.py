#!/usr/bin/env python3
"""Print one sha256 per exact result family, to compare two source trees.

Every result is put in a canonical JSON form (sorted terms, rationals as
"p/q" strings) before hashing, so two trees that print the same lines
computed the same exact results.  Families: the A_n flat coordinate maps
(t(s), s(t), eta and det(dt/ds)) and charts for n = 1..10 and the P^2 charts,
their WDVV reports, axiom reports and intersection forms (A_n up to n = 8),
the P^2 counts N_1..N_12, the deformed flat series, pairing defects and Omega
tables on A4 and P^2@5, and the class lists of the depth-4 braid orbits of the
P^2, P^3 and P^4 Stokes matrices and of the P^2 Gram form carrying its
connection matrix (Stokes entries as "p/q" whether stored as int or Fraction,
connection entries to 25 digits).

scripts/exact_hashes.txt holds the expected lines; the last line printed, the
run time, is not among them.  A change that alters an exact result must
update that file on purpose.

Usage: PYTHONPATH=src python scripts/exact_hashes.py
       PYTHONPATH=src python scripts/exact_hashes.py | grep -v '^# ' | diff scripts/exact_hashes.txt -
"""

import hashlib
import json
import time
from fractions import Fraction

import mpmath as mp

from frobforge import (
    ExpSeries,
    MultiPoly,
    Unfolding,
    build_an_chart,
    build_p2_chart,
    check_axioms,
    check_wdvv,
    deformed_flat_coordinates,
    flat_coordinates,
    instanton_numbers,
    intersection_form,
    omega_table,
)
from frobforge.deformed import pairing_defect
from frobforge.monodromy import braid_orbit, pd_connection
from frobforge.projective import pd_stokes
from frobforge.serialize import chart_to_json, potential_to_json

AN_RANKS = range(1, 11)
AN_NO_FORM = ("A9", "A10")
P2_DEGREES = (4, 8, 12)
SERIES_ORDER = 8
ORBIT_DEGREES = (2, 3, 4)
ORBIT_DEPTH = 4


def canon(x):
    """JSON-ready canonical form of nested exact results."""
    if isinstance(x, (MultiPoly, ExpSeries)):
        return potential_to_json(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in sorted(x.items())]
    return x


def braid_class(S, C):
    stokes = [[str(Fraction(x)) for x in row] for row in S]
    if C is None:
        return stokes
    return [stokes, [[mp.nstr(C[i, j], 25) for j in range(C.cols)] for i in range(C.rows)]]


def families():
    flat = [flat_coordinates(Unfolding.build(n)) for n in AN_RANKS]
    yield "an_flat", [(fc.t_of_s, fc.s_of_t, fc.eta, fc.jacobian_det) for fc in flat]
    charts = [(f"A{n}", build_an_chart(n)) for n in AN_RANKS]
    charts += [(f"P2@{d}", build_p2_chart(d)) for d in P2_DEGREES]
    yield "charts", [chart_to_json(c) for _, c in charts]
    wdvv = [check_wdvv(c) for _, c in charts]
    yield "wdvv", [(r.passed, r.checked, r.nonzero) for r in wdvv]
    axioms = [check_axioms(c) for _, c in charts]
    yield "axioms", [(r.unity_ok, r.quasihomogeneous, r.quadratic_defect, r.notes) for r in axioms]
    # A9 and A10 stay out: the A9 form alone takes over a minute (A8 about 6 s)
    forms = [intersection_form(c) for name, c in charts if name not in AN_NO_FORM]
    yield "intersection_forms", [(f.entries, f.determinant) for f in forms]
    yield "instanton_numbers", instanton_numbers(12)
    for name, chart in (("A4", build_an_chart(4)), ("P2@5", build_p2_chart(5))):
        series = deformed_flat_coordinates(chart, SERIES_ORDER)
        yield f"deformed_series {name}", (series.order, series.thetas, series.matrices)
        yield f"pairing {name}", [pairing_defect(chart, series, p) for p in range(SERIES_ORDER + 1)]
        table = omega_table(chart, SERIES_ORDER - 1, series)
        yield f"omega {name}", (table.order, table.blocks)
    orbits = [braid_orbit(pd_stokes(d), depth=ORBIT_DEPTH, cap=100_000) for d in ORBIT_DEGREES]
    conn = pd_connection(2)
    orbits.append(braid_orbit(conn.gram(), conn.connection, depth=ORBIT_DEPTH, cap=100_000))
    yield "braid", [[braid_class(S, C) for S, C in orbit.classes] for orbit in orbits]


def main():
    t0 = time.perf_counter()
    for name, value in families():
        blob = json.dumps(canon(value), sort_keys=True).encode()
        print(f"{name:24s} {hashlib.sha256(blob).hexdigest()}", flush=True)
    print(f"# {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
