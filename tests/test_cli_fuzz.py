"""Mutation fuzzing of chart, Stokes-matrix and V JSON and of point strings
through the CLI.

Every input must end in a documented exit code, and every non-zero exit in a
prefixed diagnostic on stderr: never an uncaught exception.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobforge.cli import main
from frobforge.projective import build_p2_chart, pd_stokes
from frobforge.serialize import chart_to_json
from frobforge.unfolding import build_an_chart

A3 = chart_to_json(build_an_chart(3))
P2 = chart_to_json(build_p2_chart(3))
STOKES = pd_stokes(2)  # [[1, 3, 3], [0, 1, 3], [0, 0, 1]]

PREFIXES = ("usage-error: ", "schema-error: ", "algebra-error: ", "numeric-error: ")

# where a mutation lands: the top level and inside potential.terms, eta, euler
PATHS = [
    ("n",), ("eta",), ("charge_d",), ("unity_index",), ("potential",), ("euler",),
    ("potential", "arity"), ("potential", "terms"),
    ("potential", "terms", 0), ("potential", "terms", 0, "coeff"),
    ("potential", "terms", 0, "exps"), ("potential", "terms", 0, "exps", 1),
    ("eta", 0), ("eta", 0, 2), ("eta", 1, 1),
    ("euler", "linear"), ("euler", "linear", 0), ("euler", "linear", 2, 2),
    ("euler", "const"), ("euler", "const", 1),
]

# the series header of the P^2 chart and the marker degree of each of its terms
SERIES_PATHS = [("potential", "marker_var"), ("potential", "trunc")] + [
    ("potential", "terms", i, "marker") for i in range(len(P2["potential"]["terms"]))
]

# the whole Stokes matrix, a row, or an entry of it
STOKES_PATHS = [(), (0,), (2,), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0), (2, 0)]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 7)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.sampled_from(["0", "1", "-1/2", "3/0", "x", "", "1+2j"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["coeff", "exps", "re", "im", "a"]), inner, max_size=3),
    max_leaves=8,
)


def mutated(base, path, value, delete):
    if not path:
        return value
    blob = copy.deepcopy(base)
    node = blob
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return blob


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # how the argument parser reports a usage error
            code = exc.code
    return code, err.getvalue()


def run_on_file(blob, commands, flag="--chart"):
    """(argv, exit code, stderr) of each command run on ``blob``, written to a
    JSON file and passed as ``flag``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(blob, fh)
        for argv in commands:
            argv = [*argv, flag, path]
            yield (argv, *run_cli(argv))


def assert_documented_exits(blob, commands, flag="--chart"):
    for argv, code, err in run_on_file(blob, commands, flag):
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert err.startswith(PREFIXES), (argv, err)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PATHS), json_values, st.booleans())
@example(("potential", "terms", 0, "exps"), [0.5, 0, 1], False)
@example(("potential", "terms", 0, "exps"), [True, 0, 1], False)
@example(("potential", "terms", 0), ["1", [0, 0, 3]], False)
@example(("potential", "terms"), None, False)
@example(("potential", "terms"), {"coeff": "1", "exps": [0, 0, 3]}, False)
@example(("potential", "arity"), True, False)
@example(("n",), "3", False)
@example(("unity_index",), None, False)
@example(("euler", "const"), 7, False)
@example(("eta", 1, 1), "1", False)
def test_mutated_chart_gives_documented_exit(path, value, delete):
    assert_documented_exits(
        mutated(A3, path, value, delete),
        [["wdvv-check"], ["canonical", "--t", "0.2,0.4,1.1"]],
    )


SERIES_COMMANDS = [["wdvv-check"], ["descendents", "--order", "2"]]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SERIES_PATHS), json_values, st.booleans())
@example(("potential", "marker_var"), 2, False)
@example(("potential", "trunc"), 7, False)
@example(("potential", "terms", 3, "marker"), 0, False)
@example(("potential", "terms", 0, "marker"), None, False)
def test_mutated_series_chart_gives_documented_exit(path, value, delete):
    assert_documented_exits(mutated(P2, path, value, delete), SERIES_COMMANDS)


@pytest.mark.parametrize("path,value", [
    (("potential", "marker_var"), 7),  # not below the arity 3
    (("potential", "trunc"), 1),  # below the markers 2 and 3 of two terms
])
def test_series_range_violation_is_schema_error(path, value):
    for argv, code, err in run_on_file(mutated(P2, path, value, False), SERIES_COMMANDS):
        assert code == 1 and err.startswith("schema-error: "), (argv, code, err)


def stokes_commands(word):
    return [["braid", f"--word={word}"], ["orbit", "--depth", "2"]]


words = st.lists(
    st.sampled_from(["1", "-1", "2", "-2", "0", "3", "x", "", " ", "1.5", "true", "-"]),
    max_size=4,
).map(",".join)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STOKES_PATHS), json_values, st.booleans(), words)
@example((0, 1), "x", False, "1")
@example((1, 2), None, False, "1")
@example((), {"a": 1}, False, "1")
@example((0, 1), True, False, "1")
@example((0, 1), 0.1, False, "1")
@example((1,), [0, 1, 3, 4], False, "1")
@example((1, 2), None, True, "1")
@example((0, 1), 3, False, "1,x")
def test_mutated_stokes_gives_documented_exit(path, value, delete, word):
    assert_documented_exits(mutated(STOKES, path, value, delete), stokes_commands(word), "--s")


@pytest.mark.parametrize("path,value,argv,prefix", [
    ((0, 1), "x", ["braid", "--word", "1"], "schema-error: "),
    ((1, 2), None, ["orbit"], "schema-error: "),
    ((), {"a": 1}, ["orbit"], "schema-error: "),
    ((0, 1), True, ["braid", "--word", "1"], "schema-error: "),  # not read as 1
    ((0, 1), 0.1, ["orbit"], "schema-error: "),  # not read as a binary fraction
    ((1,), [0, 1, 3, 4], ["braid", "--word", "1"], "schema-error: "),
    ((), STOKES, ["braid", "--word", "1,x"], "usage-error: "),
    ((), STOKES, ["orbit", "--cap", "0"], "schema-error: "),
    ((1, 0), 5, ["braid", "--word", ""], "schema-error: "),  # the empty word checks S too
], ids=["entry-x", "entry-null", "object", "entry-true", "entry-float", "long-row", "word-x",
        "cap-0", "lower-empty-word"])
def test_bad_stokes_input_is_diagnosed(path, value, argv, prefix):
    [(argv, code, err)] = run_on_file(mutated(STOKES, path, value, False), [argv], "--s")
    assert code == 1 and err.startswith(prefix), (argv, code, err)


@pytest.mark.parametrize("flags", [["--criteria", c] for c in ("0", "-1", "x", "99", ",")]
                         + [["--seed=-1"], ["--seed", "x"]],
                         ids=["0", "-1", "x", "99", ",", "seed=-1", "seed=x"])
def test_bad_selftest_criteria_are_usage_errors(flags):
    code, err = run_cli(["selftest", *flags])
    assert code == 1 and err.startswith("usage-error: "), (flags, code, err)


def test_connection_with_wrong_columns_is_schema_error(tmp_path):
    c_path = tmp_path / "c.json"
    c_path.write_text(json.dumps([[1, 0], [0, 1]]))
    [(argv, code, err)] = run_on_file(
        STOKES, [["braid", "--word", "1", "--c", str(c_path)]], "--s")
    assert code == 1 and err.startswith("schema-error: "), (argv, code, err)


def test_connection_with_boolean_entry_is_schema_error(tmp_path):
    c_path = tmp_path / "c.json"
    c_path.write_text(json.dumps([[True, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    [(argv, code, err)] = run_on_file(
        STOKES, [["braid", "--word", "1", "--c", str(c_path)]], "--s")
    assert code == 1 and err.startswith("schema-error: "), (argv, code, err)


# a skew V on A3-sized u-paths, the A3 chart for G, and points that work
V3 = [[0, 0.3, 0.1], [-0.3, 0, 0.5], [-0.1, -0.5, 0]]
U_PATH = "0,1,2+1j; 0.4,1.3,2+1j"
T0, T1 = "0.2,0.4,1.1", "0.9,0.4,1.1"

# the whole V, a row, or an entry of it
V_PATHS = [(), (0,), (1,), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2)]


def isomonodromy_command(path=U_PATH):
    # "--flag=value", so that a value such as "-inf" is not read as an option
    return ["isomonodromy", "run", f"--path={path}", "--tol", "1e-8"]


# (where, value, case id) of each V that must be a schema error
BAD_V = [
    ((1,), [-0.3, 0], "ragged"),
    ((1, 0), 0.3, "not-skew"),
    ((1, 1), 0.2, "diagonal"),
    ((0, 1), True, "entry-true"),
    ((0, 1), {"re": True, "im": 0}, "re-true"),
    ((0, 1), "nan", "entry-nan"),
    ((0, 1), float("inf"), "entry-inf"),
    ((), [[0, 1, 0], [1, 0, 0], [0, 0, 0]], "symmetric"),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(V_PATHS), json_values, st.booleans())
@example((), {"V": V3}, False)
def test_mutated_v_gives_documented_exit(path, value, delete):
    assert_documented_exits(mutated(V3, path, value, delete), [isomonodromy_command()], "--v0")


@pytest.mark.parametrize("path,value", [case[:2] for case in BAD_V],
                         ids=[case[2] for case in BAD_V])
def test_bad_v_is_schema_error(path, value):
    [(argv, code, err)] = run_on_file(
        mutated(V3, path, value, False), [isomonodromy_command()], "--v0")
    assert code == 1 and err.startswith("schema-error: "), (argv, code, err)


GOOD_TOKENS = ["0", "1", "-1", "0.5", "2", "1+1j", "-0.3j", " 0.4 "]
BAD_TOKENS = ["x", "1+", "true", "nan", "inf", "-inf", "1e400", "nan+1j", "1/2"]

point_strings = st.lists(
    st.lists(st.sampled_from(GOOD_TOKENS + BAD_TOKENS + [""]), max_size=4).map(",".join),
    min_size=1, max_size=3,
).map(";".join)


def point_commands(flag, text):
    """The command that reads ``text`` as ``flag``, the other inputs valid."""
    if flag == "--path":
        return [isomonodromy_command(text)]
    points = {"--t0": T0, "--t1": T1, flag: text}
    return [["gfunction", f"--t0={points['--t0']}", f"--t1={points['--t1']}"]]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["--path", "--t0", "--t1"]), point_strings)
@example("--path", "1,nan;1,3")
@example("--path", "0,1,2;0,1,inf")
@example("--t0", "nan,0,1")
@example("--t1", "1e400,0.4,1.1")
@example("--t0", "0.2;0.4,1.1")
@example("--path", "0,1,2;;0.5,1,2")
@example("--t1", "")
@example("--path", " ; ")
@example("--path", "-inf")
def test_mutated_points_give_documented_exit(flag, text):
    # a token that is not a finite complex literal is a schema error, whatever
    # else the string holds
    bad = any(tok.strip() in BAD_TOKENS for tok in text.replace(";", ",").split(","))
    blob, file_flag = (V3, "--v0") if flag == "--path" else (A3, "--chart")
    for argv, code, err in run_on_file(blob, point_commands(flag, text), file_flag):
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert err.startswith(PREFIXES), (argv, err)
        if bad:
            assert code == 1 and err.startswith("schema-error: "), (argv, code, err)
