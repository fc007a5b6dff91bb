"""Command-line entry point.

One binary, subcommand style; exact data lands in JSON files, trajectories in
CSV.  Exit codes: 0 success, 1 validation problem (bad flags, malformed JSON,
schema violation) or exact-algebra failure (an input the exact layer rejects,
such as ``an-build --n 0``), 2 numeric failure (tolerance, caustic).
Diagnostics go to stderr with a distinguishing prefix (``usage-error:``,
``schema-error:``, ``algebra-error:``, ``numeric-error:``); machine output goes
to stdout or files.
A tolerance (``--tol``, ``an-critical --precision``) must be finite and > 0,
and a digit count (``connection pd --precision``, default 30) an integer
>= 15; anything else exits 1 with ``schema-error:`` before any work.
The dimension n is read from the input: ``an-critical`` takes n = len(--s)
and ``isomonodromy run`` n = len(V), which must match every waypoint.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import serialize as ser
from .acceptance import ALL_CRITERIA, run_criteria
from .charts import check_axioms, check_wdvv
from .deformed import deformed_flat_coordinates
from .descendents import hierarchy_flow, omega_table
from .errors import AlgebraError, NumericError, ValidationError
from .frames import canonical_frame
from .isomonodromy import IsomonodromyState, g_function, integrate
from .monodromy import braid_orbit, braid_word, check_compatibility, pd_connection
from .projective import build_p2_chart, pd_classical_data, pd_stokes
from .unfolding import Unfolding, build_an_chart, critical_values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage-error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_fraction_vector(s: str) -> list[Fraction]:
    out = []
    for piece in s.split(","):
        piece = piece.strip()
        if piece:
            try:
                out.append(Fraction(piece))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad rational {piece!r}: {exc}") from exc
    if not out:
        raise ValidationError("empty vector")
    return out


def _braid_word(text: str) -> list[int]:
    """--word: comma-separated generator indices, negative = inverse."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad braid word {text!r}: expected integers") from None


def _criteria(text: str) -> list[int]:
    """--criteria: comma-separated criterion numbers, each in 1..13."""
    try:
        numbers = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        numbers = []
    if not numbers or not all(1 <= k <= len(ALL_CRITERIA) for k in numbers):
        raise argparse.ArgumentTypeError(
            f"bad criteria {text!r}: expected numbers in 1..{len(ALL_CRITERIA)}"
        )
    return numbers


def _seed(text: str) -> int:
    """--seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"bad seed {text!r}: expected a non-negative integer")
    return int(text)


def _load_stokes(path: str):
    with open(path) as fh:
        return ser.stokes_from_json(json.load(fh))


def _emit(obj, out_path, quiet=False):
    text = ser.dump_json(obj, out_path)
    if not out_path and not quiet:
        print(text)


def _cmd_an_build(args):
    chart = build_an_chart(args.n)
    _emit(ser.chart_to_json(chart), args.out)
    return 0


def _cmd_an_critical(args):
    s = _parse_fraction_vector(args.s)
    unf = Unfolding.build(len(s))
    values = critical_values(unf, s, precision=args.precision)
    _emit([ser.complex_to_json(v) for v in values], args.out)
    return 0


def _cmd_qh_p2(args):
    chart = build_p2_chart(args.degree)
    _emit(ser.chart_to_json(chart), args.out)
    return 0


def _cmd_pd_data(args):
    pd = pd_classical_data(args.d)
    obj = {
        "d": pd.d,
        "eta": [list(r) for r in pd.eta],
        "mu": [ser.frac_to_str(x) for x in pd.mu],
        "R": [list(r) for r in pd.r],
    }
    _emit(obj, args.out)
    return 0


def _cmd_wdvv_check(args):
    chart = ser.load_chart(args.chart)
    report = check_wdvv(chart)
    print(report)
    if not report.passed:
        print("numeric-error: associativity residuals do not vanish", file=sys.stderr)
        return 2
    return 0


def _cmd_axioms(args):
    chart = ser.load_chart(args.chart)
    report = check_axioms(chart)
    print(report)
    if not report.passed:
        print("numeric-error: chart violates the axioms", file=sys.stderr)
        return 2
    return 0


def _cmd_canonical(args):
    chart = ser.load_chart(args.chart)
    t = ser.complex_vector_from_string(args.t)
    if len(t) != chart.n:
        raise ValidationError(f"point must have {chart.n} components")
    frame = canonical_frame(chart, t)
    obj = {
        "u": [ser.complex_to_json(x) for x in frame.u],
        "Psi": ser.complex_matrix_to_json(frame.psi),
        "V": ser.complex_matrix_to_json(frame.v),
        "ordering": list(frame.ordering),
    }
    _emit(obj, args.out)
    return 0


def _cmd_isomonodromy_run(args):
    with open(args.v0) as fh:
        V = ser.skew_matrix_from_json(json.load(fh))
    path = ser.waypoint_list_from_string(args.path)
    n = len(V)
    if n != len(path[0]):
        raise ValidationError(f"V is {n} x {n} but the first waypoint has {len(path[0])} entries")
    state = IsomonodromyState.from_matrix(path[0], V)
    traj = integrate(state, path[1:], tol=args.tol)
    header = ["param"]
    for i in range(n):
        header += [f"u{i + 1}_re", f"u{i + 1}_im"]
    for i in range(n):
        for j in range(i + 1, n):
            header += [f"v{i + 1}{j + 1}_re", f"v{i + 1}{j + 1}_im"]
    for i in range(n):
        header += [f"H{i + 1}_re", f"H{i + 1}_im"]
    header += ["logtau_re", "logtau_im"]
    rows = []
    for smp in traj.samples:
        row = [smp.param]
        for u in smp.u:
            row += [u.real, u.imag]
        for v in smp.v_upper:
            row += [v.real, v.imag]
        for h in smp.hamiltonian_values:
            row += [h.real, h.imag]
        row += [smp.log_tau.real, smp.log_tau.imag]
        rows.append(row)
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(
        f"steps={traj.steps} rejected={traj.rejected} "
        f"logtau={traj.log_tau.real:+.12e}{traj.log_tau.imag:+.12e}j",
        file=sys.stderr,
    )
    return 0


def _cmd_gfunction(args):
    chart = ser.load_chart(args.chart)
    t0 = ser.complex_vector_from_string(args.t0)
    t1 = ser.complex_vector_from_string(args.t1)
    gv = g_function(chart, t0, t1, tol=args.tol)
    obj = {
        "base_point": [ser.complex_to_json(x) for x in gv.base_point],
        "target_point": [ser.complex_to_json(x) for x in gv.target_point],
        "d_log_tau": ser.complex_to_json(gv.d_log_tau),
        "d_log_j": ser.complex_to_json(gv.d_log_j),
        "delta_g": ser.complex_to_json(gv.delta_g),
        **{key: getattr(gv, key) for key in ("panels", "frames", "error", "max_defect")},
    }
    _emit(obj, args.out)
    return 0


def _cmd_descendents(args):
    chart = ser.load_chart(args.chart)
    series = deformed_flat_coordinates(chart, args.order + 1)
    table = omega_table(chart, args.order, series)
    blocks = {}
    for (p, q), mat in sorted(table.blocks.items()):
        blocks[f"{p},{q}"] = [[ser.potential_to_json(e) for e in row] for row in mat]
    _emit({"order": table.order, "blocks": blocks}, args.out, quiet=bool(args.out))
    return 0


def _cmd_flow(args):
    chart = ser.load_chart(args.chart)
    flow = hierarchy_flow(chart, args.alpha, args.p)
    obj = {
        "alpha": flow.alpha,
        "p": flow.p,
        "matrix": [[ser.potential_to_json(e) for e in row] for row in flow.matrix],
    }
    _emit(obj, args.out)
    return 0


def _cmd_stokes_pd(args):
    _emit(pd_stokes(args.d), args.out)
    return 0


def _cmd_connection_pd(args):
    conn = pd_connection(args.d, args.precision)
    dps = conn.dps
    rep = check_compatibility(conn.monodromy_data())

    def mat(m):
        return [
            [mp.nstr(m[i, j], dps, strip_zeros=False) for j in range(m.cols)]
            for i in range(m.rows)
        ]

    obj = {
        "d": conn.d,
        "precision_dps": dps,
        "a_coefficients": [mp.nstr(a, dps, strip_zeros=False) for a in conn.a_coefficients],
        "c_prime": mat(conn.c_prime),
        "c_double_prime": mat(conn.c_double_prime),
        "connection": mat(conn.connection),
        "compatible_stokes_form": conn.gram(),
        "compatibility_residual": rep.residual,
    }
    _emit(obj, args.out)
    return 0


def _cmd_braid(args):
    S = _load_stokes(args.s)
    C = None
    if args.c:
        with open(args.c) as fh:
            C = ser.complex_matrix_from_json(json.load(fh), "C")
        if not C or any(len(row) != len(S) for row in C):
            raise ValidationError(f"C must be a non-empty matrix with {len(S)} columns")
    S2, C2 = braid_word(S, C, args.word)
    obj = {"S": [[ser.frac_to_str(x) for x in row] for row in S2]}
    if C2 is not None:
        obj["C"] = ser.complex_matrix_to_json(C2.tolist())
    _emit(obj, args.out)
    return 0


def _cmd_orbit(args):
    S = _load_stokes(args.s)
    orbit = braid_orbit(S, depth=args.depth, cap=args.cap)
    obj = {
        "size": orbit.size,
        "depth": orbit.depth,
        "truncated": orbit.truncated,
        "classes": [
            [[ser.frac_to_str(x) for x in row] for row in Scls]
            for Scls, _ in orbit.classes
        ],
    }
    _emit(obj, args.out)
    return 0


def _cmd_selftest(args):
    results = run_criteria(args.criteria, seed=args.seed)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> _Parser:
    p = _Parser(prog="frobforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("an-build", help="build the A_n unfolding chart")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_an_build)

    q = sub.add_parser("an-critical", help="critical values of the unfolding at numeric s")
    q.add_argument("--s", required=True, help="comma-separated rationals")
    q.add_argument("--precision", type=float, default=1e-12)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_an_critical)

    q = sub.add_parser("qh-p2", help="build the P2 quantum-cohomology chart")
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_qh_p2)

    q = sub.add_parser("pd-data", help="classical (eta, mu, R) of P^d")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_pd_data)

    q = sub.add_parser("wdvv-check", help="verify associativity residuals of a chart")
    q.add_argument("--chart", required=True)
    q.set_defaults(fn=_cmd_wdvv_check)

    q = sub.add_parser("axioms", help="verify unity and quasihomogeneity of a chart")
    q.add_argument("--chart", required=True)
    q.set_defaults(fn=_cmd_axioms)

    q = sub.add_parser("canonical", help="canonical coordinates and frame at a point")
    q.add_argument("--chart", required=True)
    q.add_argument("--t", required=True, help="comma-separated complex literals")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_canonical)

    iso = sub.add_parser("isomonodromy", help="isomonodromy flows")
    iso_sub = iso.add_subparsers(dest="subcommand", required=True)
    q = iso_sub.add_parser("run", help="integrate along a piecewise-linear u-path")
    q.add_argument("--v0", required=True, help="JSON file with the initial skew V")
    q.add_argument("--path", required=True, help="semicolon-separated u waypoints")
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--out", help="CSV output path")
    q.set_defaults(fn=_cmd_isomonodromy_run)

    q = sub.add_parser("gfunction", help="G-function difference between chart points")
    q.add_argument("--chart", required=True)
    q.add_argument("--t0", required=True)
    q.add_argument("--t1", required=True)
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_gfunction)

    q = sub.add_parser("descendents", help="two-point descendent table")
    q.add_argument("--chart", required=True)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_descendents)

    q = sub.add_parser("flow", help="hierarchy flow matrix A(t) for a label (alpha, p)")
    q.add_argument("--chart", required=True)
    q.add_argument("--alpha", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_flow)

    st = sub.add_parser("stokes", help="Stokes matrices")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    q = st_sub.add_parser("pd", help="binomial Stokes matrix of P^d")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_stokes_pd)

    co = sub.add_parser("connection", help="central connection matrices")
    co_sub = co.add_subparsers(dest="subcommand", required=True)
    q = co_sub.add_parser("pd", help="central connection data of P^d")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--precision", type=int, help="working precision in decimal digits, at least 15")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_connection_pd)

    q = sub.add_parser("braid", help="apply a braid word to (S, C)")
    q.add_argument("--s", required=True, help="JSON file with S")
    q.add_argument("--c", help="JSON file with C")
    q.add_argument("--word", required=True, type=_braid_word,
                   help="e.g. '1,-2,1' (negative = inverse)")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_braid)

    q = sub.add_parser("orbit", help="braid orbit modulo sign diagonals")
    q.add_argument("--s", required=True)
    q.add_argument("--depth", type=int, default=3)
    q.add_argument("--cap", type=int, default=1000)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_orbit)

    q = sub.add_parser("selftest", help="run the acceptance criteria")
    q.add_argument("--criteria", type=_criteria,
                   help="comma-separated criterion numbers (default all)")
    q.add_argument("--seed", type=_seed, default=0)
    q.set_defaults(fn=_cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"schema-error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError) as exc:
        print(f"schema-error: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"algebra-error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
