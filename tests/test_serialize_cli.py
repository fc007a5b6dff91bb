import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from frobforge.cli import main
from frobforge.errors import ValidationError
from frobforge.poly import MultiPoly
from frobforge.projective import build_p2_chart
from frobforge.serialize import (
    chart_from_json,
    chart_to_json,
    complex_from_json,
    complex_to_json,
    frac_from_str,
    frac_to_str,
    poly_from_json,
    poly_to_json,
    series_from_json,
    series_to_json,
    waypoint_list_from_string,
)
from frobforge.unfolding import build_an_chart


def test_fraction_round_trip():
    for x in (Fraction(3), Fraction(-7, 12), Fraction(0)):
        assert frac_from_str(frac_to_str(x)) == x
    with pytest.raises(ValidationError):
        frac_from_str("3/0")
    with pytest.raises(ValidationError):
        frac_from_str("abc")


def test_complex_round_trip():
    for z in (0.25 - 1.5j, 3 + 0j, -2.7j):
        assert complex_from_json(complex_to_json(z)) == z
    assert complex_from_json("1+2j") == 1 + 2j


def test_poly_round_trip():
    p = MultiPoly(3, {(2, 0, 1): Fraction(1, 2), (0, 4, 0): Fraction(-3)})
    assert poly_from_json(poly_to_json(p)) == p


def test_series_round_trip():
    s = build_p2_chart(2).potential
    assert series_from_json(series_to_json(s)) == s


def test_chart_round_trip_exact():
    for chart in (build_an_chart(3), build_p2_chart(2)):
        blob = json.dumps(chart_to_json(chart))
        back = chart_from_json(json.loads(blob))
        assert back == chart
        # a second pass is bit-identical
        assert json.dumps(chart_to_json(back)) == blob


@pytest.mark.parametrize("terms", [
    [{"coeff": "1", "exps": [0.5, 0, 1]}],
    [{"coeff": "1", "exps": [True, 0, 1]}],
    [{"coeff": "1", "exps": [-1, 0, 1]}],
    [{"coeff": True, "exps": [0, 0, 1]}],
    [["1", [0, 0, 3]]],
    [{"coeff": "1"}],
    None,
    {"coeff": "1", "exps": [0, 0, 3]},
])
def test_malformed_terms_rejected(terms):
    with pytest.raises(ValidationError):
        poly_from_json({"arity": 3, "terms": terms})
    blob = series_to_json(build_p2_chart(2).potential)
    blob["terms"] = terms
    with pytest.raises(ValidationError):
        series_from_json(blob)


@pytest.mark.parametrize("key,value", [
    ("arity", True), ("arity", 3.0), ("marker_var", "1"), ("trunc", -1),
    ("marker_var", 3), ("trunc", 1),  # marker_var >= arity; trunc below a term's marker 2
])
def test_malformed_series_header_rejected(key, value):
    blob = series_to_json(build_p2_chart(2).potential)
    blob[key] = value
    with pytest.raises(ValidationError):
        series_from_json(blob)


def test_chart_schema_errors():
    with pytest.raises(ValidationError):
        chart_from_json({"n": 2})
    good = chart_to_json(build_an_chart(2))
    bad = dict(good)
    bad["eta"] = [["0", "1"]]
    with pytest.raises(ValidationError):
        chart_from_json(bad)


def test_waypoint_parsing():
    pts = waypoint_list_from_string("0,1,2+1j; 0.5,1.5,2+1j")
    assert pts == [[0, 1, 2 + 1j], [0.5, 1.5, 2 + 1j]]


# -- CLI end-to-end -------------------------------------------------------------

def test_cli_an_build_and_checks(tmp_path):
    out = tmp_path / "a3.json"
    assert main(["an-build", "--n", "3", "--out", str(out)]) == 0
    chart = chart_from_json(json.loads(out.read_text()))
    assert chart.n == 3
    assert main(["wdvv-check", "--chart", str(out)]) == 0
    assert main(["axioms", "--chart", str(out)]) == 0


def test_cli_qh_p2(tmp_path):
    out = tmp_path / "p2.json"
    assert main(["qh-p2", "--degree", "2", "--out", str(out)]) == 0
    assert main(["wdvv-check", "--chart", str(out)]) == 0


def test_cli_critical_values(tmp_path, capsys):
    assert main(["an-critical", "--n", "2", "--s=-3,0"]) == 0
    vals = json.loads(capsys.readouterr().out)
    got = sorted(float(v["re"]) for v in vals)
    assert got == pytest.approx([-2.0, 2.0], abs=1e-9)


def test_cli_stokes_and_pd_data(capsys):
    assert main(["stokes", "pd", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    assert main(["pd-data", "--d", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mu"] == ["-1/2", "1/2"]
    assert data["R"] == [[0, 0], [2, 0]]


def test_cli_canonical_and_gfunction(tmp_path, capsys):
    chart_path = tmp_path / "a3.json"
    main(["an-build", "--n", "3", "--out", str(chart_path)])
    assert main(["canonical", "--chart", str(chart_path), "--t", "0.2,0.4,1.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["u"]) == 3
    assert main([
        "gfunction", "--chart", str(chart_path),
        "--t0", "0.2,0.4,1.1", "--t1", "0.9,0.4,1.1",
    ]) == 0
    gout = json.loads(capsys.readouterr().out)
    assert abs(float(gout["delta_g"]["re"])) < 1e-8


def test_cli_gfunction_reports_diagnostics(tmp_path, capsys):
    chart_path = tmp_path / "a3.json"
    main(["an-build", "--n", "3", "--out", str(chart_path)])
    capsys.readouterr()
    assert main([
        "gfunction", "--chart", str(chart_path),
        "--t0", "0.2,0.4,1.1", "--t1", "0.9,0.4,1.1",
    ]) == 0
    gout = json.loads(capsys.readouterr().out)
    assert gout["level"] >= 1 and gout["j_level"] >= 1
    assert gout["frames"] > 0
    assert 0 <= gout["max_defect"] < 1e-10


@pytest.mark.parametrize("path,value", [
    (("terms", 0, "exps"), [0.5, 0, 1]),
    (("terms", 0), ["1", [0, 0, 3]]),
    (("terms",), None),
    (("terms",), {"coeff": "1", "exps": [0, 0, 3]}),
])
def test_cli_malformed_potential_is_schema_error(tmp_path, capsys, path, value):
    blob = chart_to_json(build_an_chart(3))
    node = blob["potential"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad_chart.json"
    bad.write_text(json.dumps(blob))
    assert main(["wdvv-check", "--chart", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("schema-error: ")


def test_cli_isomonodromy_run(tmp_path, capsys):
    v0 = tmp_path / "v0.json"
    v0.write_text(json.dumps([
        ["0", "0.3", "0.1"],
        ["-0.3", "0", "0.5"],
        ["-0.1", "-0.5", "0"],
    ]))
    out = tmp_path / "traj.csv"
    argv = [
        "isomonodromy", "run", "--n", "3", "--v0", str(v0),
        "--path", "0,1,2+1j; 0.4,1.3,2+1j", "--tol", "1e-9",
    ]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("param,u1_re")
    assert len(lines) > 2
    # without --out the same CSV goes to stdout
    assert main(argv) == 0
    with open(out, newline="") as fh:
        assert capsys.readouterr().out == fh.read()


def test_cli_canonical_output_feeds_isomonodromy_run(tmp_path):
    chart_path, frame_path = tmp_path / "a3.json", tmp_path / "frame.json"
    main(["an-build", "--n", "3", "--out", str(chart_path)])
    assert main(["canonical", "--chart", str(chart_path), "--t", "0.2,0.4,1.1",
                 "--out", str(frame_path)]) == 0
    u = [complex_from_json(x) for x in json.loads(frame_path.read_text())["u"]]
    path = "; ".join(",".join(repr(s * x) for x in u) for s in (1, 1.1))
    assert main(["isomonodromy", "run", "--n", "3", "--v0", str(frame_path),
                 f"--path={path}", "--tol", "1e-8", "--out", str(tmp_path / "traj.csv")]) == 0


def test_cli_braid_and_orbit(tmp_path, capsys):
    s = tmp_path / "s.json"
    s.write_text("[[1,2],[0,1]]")
    assert main(["braid", "--s", str(s), "--word", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["S"] == [["1", "-2"], ["0", "1"]]
    assert main(["orbit", "--s", str(s), "--depth", "3", "--cap", "10"]) == 0
    orb = json.loads(capsys.readouterr().out)
    assert orb["size"] == 1


def test_cli_descendents_on_series_chart(tmp_path):
    chart_path = tmp_path / "p2.json"
    main(["qh-p2", "--degree", "2", "--out", str(chart_path)])
    out = tmp_path / "omega.json"
    assert main([
        "descendents", "--chart", str(chart_path), "--order", "2",
        "--out", str(out),
    ]) == 0
    table = json.loads(out.read_text())
    assert table["order"] == 2
    # each stored block entry parses back as a series
    from frobforge.serialize import potential_from_json

    entry = table["blocks"]["0,0"][0][2]
    potential_from_json(entry)


def test_cli_selftest_deterministic(capsys):
    assert main(["selftest", "--criteria", "4,5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--criteria", "4,5", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_connection(capsys):
    assert main(["connection", "pd", "--d", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["compatibility_residual"] < 1e-8
    assert out["compatible_stokes_form"] == [[1, 2], [0, 1]]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_cli_rejects_a_bad_tolerance_before_any_work(tmp_path, capsys, tol):
    chart_path = tmp_path / "a3.json"
    main(["an-build", "--n", "3", "--out", str(chart_path)])
    v0 = tmp_path / "v0.json"
    v0.write_text(json.dumps([["0", "0.3", "0.1"], ["-0.3", "0", "0.5"], ["-0.1", "-0.5", "0"]]))
    capsys.readouterr()
    for argv in (
        ["gfunction", "--chart", str(chart_path), "--t0", "0.2,0.4,1.1", "--t1", "0.9,0.4,1.1"],
        ["isomonodromy", "run", "--n", "3", "--v0", str(v0), "--path", "0,1,2+1j; 0.4,1.3,2+1j"],
    ):
        start = time.perf_counter()
        assert main(argv + [f"--tol={tol}"]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("schema-error: tol must be finite and > 0")
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["an-critical", "--n", "2", "--s=-3,0", "--precision", "0"],
    ["an-critical", "--n", "2", "--s=-3,0", "--precision", "nan"],
    ["an-critical", "--n", "2", "--s=-3,0", "--precision", "-1"],
    ["connection", "pd", "--d", "1", "--precision", "-3"],
    ["connection", "pd", "--d", "1", "--precision", "0"],
    ["connection", "pd", "--d", "1", "--precision", "14"],
])
def test_cli_rejects_a_bad_precision(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("schema-error: precision must be")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["abc", "5", "14"])
def test_cli_rejects_a_bad_precision_variable(value, monkeypatch, capsys):
    monkeypatch.setenv("FROBFORGE_PRECISION", value)
    assert main(["connection", "pd", "--d", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("schema-error: FROBFORGE_PRECISION must be an integer >= 15")
    assert captured.out == ""


def test_cli_connection_precision_floor_is_accepted(monkeypatch, capsys):
    monkeypatch.setenv("FROBFORGE_PRECISION", "15")
    assert main(["connection", "pd", "--d", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["precision_dps"] == 15
    assert out["compatibility_residual"] < 1e-8


def test_cli_wdvv_failure_exit_code(tmp_path):
    # a quartic deformation of the three-dimensional cubic is not associative
    chart = build_an_chart(3)
    blob = chart_to_json(chart)
    blob["potential"]["terms"].append({"coeff": "1", "exps": [0, 4, 0]})
    bad = tmp_path / "bad_chart.json"
    bad.write_text(json.dumps(blob))
    assert main(["wdvv-check", "--chart", str(bad)]) == 2


def test_cli_error_paths(tmp_path, capsys):
    # malformed JSON -> validation exit code 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["wdvv-check", "--chart", str(bad)]) == 1
    # caustic point -> numeric exit code 2
    chart_path = tmp_path / "a2.json"
    main(["an-build", "--n", "2", "--out", str(chart_path)])
    capsys.readouterr()
    code = main(["canonical", "--chart", str(chart_path), "--t", "0,0"])
    assert code == 2
    # unknown flag -> usage exit code 1
    with pytest.raises(SystemExit) as exc:
        main(["an-build", "--banana", "3"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["an-build", "--n", "0"],
    ["qh-p2", "--degree", "-1"],
])
def test_cli_algebra_error_exit_code(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("algebra-error: ")
    assert "Traceback" not in err


def test_cli_descendents_negative_order_is_algebra_error(tmp_path, capsys):
    chart_path = tmp_path / "a3.json"
    main(["an-build", "--n", "3", "--out", str(chart_path)])
    capsys.readouterr()
    assert main(["descendents", "--chart", str(chart_path), "--order", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("algebra-error: ")
    assert captured.out == ""


def test_python_m_frobforge_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "frobforge", "selftest", "--criteria", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout


def test_cli_selftest_subset(capsys):
    assert main(["selftest", "--criteria", "3,6,9"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3
