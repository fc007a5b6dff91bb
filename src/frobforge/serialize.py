"""JSON schemas and parsers for charts, polynomials, matrices and complexes.

Exact rationals travel as decimal strings "p/q" (or "p" for integers);
complex numbers as {"re": "...", "im": "..."} with decimal strings.  A
polynomial is {"arity": n, "terms": [{"coeff": "p/q", "exps": [...]}]}; an
exponential series adds "marker_var"/"trunc" and a per-term "marker".  Charts
carry {"n", "eta", "charge_d", "unity_index", "potential", "euler"}.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

from .charts import FMChart
from .errors import ValidationError
from .poly import MultiPoly
from .series import ExpSeries


def frac_to_str(x: Fraction) -> str:
    return str(Fraction(x))


def frac_from_str(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValidationError(f"expected exact rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {s!r}: {exc}") from exc


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": repr(z.real), "im": repr(z.imag)}


def complex_from_json(obj) -> complex:
    """A finite complex from a JSON number, a literal such as "1+2j", or
    {"re": ..., "im": ...}; booleans are not numbers here."""
    parts = [obj.get("re"), obj.get("im")] if isinstance(obj, dict) else [obj]
    if any(isinstance(part, bool) for part in parts):
        raise ValidationError(f"expected a complex number, got {obj!r}")
    try:
        if isinstance(obj, (int, float)):
            z = complex(obj)
        elif isinstance(obj, str):
            z = complex(obj.replace(" ", ""))
        elif isinstance(obj, dict) and "re" in obj and "im" in obj:
            z = complex(float(obj["re"]), float(obj["im"]))
        else:
            raise ValidationError(f"cannot parse complex from {obj!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad complex value {obj!r}") from exc
    if not cmath.isfinite(z):
        raise ValidationError(f"complex value {obj!r} is not finite")
    return z


def frac_matrix_to_json(rows) -> list:
    return [[frac_to_str(x) for x in row] for row in rows]


def frac_matrix_from_json(obj, what="matrix") -> tuple:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValidationError(f"{what} must be a list of rows")
    return tuple(tuple(frac_from_str(x) for x in row) for row in obj)


def stokes_from_json(obj) -> tuple:
    """A Stokes matrix S: a square list of lists of exact rationals."""
    rows = frac_matrix_from_json(obj, "S")
    if any(len(row) != len(rows) for row in rows):
        raise ValidationError(f"S must be square, got row lengths {[len(r) for r in rows]}")
    return rows


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "arity": p.arity,
        "terms": [
            {"coeff": frac_to_str(c), "exps": list(e)} for e, c in sorted(p.items())
        ],
    }


def _int_from_json(value, what: str, minimum: int) -> int:
    """A JSON integer >= minimum; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _terms_from_json(obj, arity: int):
    """Yield (entry, exponent tuple, coefficient) for each term object."""
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise ValidationError(f"'terms' must be a list, got {type(terms).__name__}")
    for t in terms:
        if not isinstance(t, dict) or "coeff" not in t or "exps" not in t:
            raise ValidationError(f"term {t!r} must be an object with 'coeff' and 'exps'")
        exps = t["exps"]
        if not isinstance(exps, list) or len(exps) != arity:
            raise ValidationError(f"exponent vector {exps!r} does not match arity {arity}")
        exps = tuple(_int_from_json(e, "exponent", 0) for e in exps)
        yield t, exps, frac_from_str(t["coeff"])


def poly_from_json(obj) -> MultiPoly:
    if not isinstance(obj, dict) or "arity" not in obj or "terms" not in obj:
        raise ValidationError("polynomial JSON needs 'arity' and 'terms'")
    arity = _int_from_json(obj["arity"], "arity", 0)
    terms = {}
    for _, exps, coeff in _terms_from_json(obj, arity):
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return MultiPoly(arity, terms)


def series_to_json(s: ExpSeries) -> dict:
    terms = sorted(s.poly.items(), key=lambda ec: (ec[0][-1], ec[0][:-1]))
    return {
        "arity": s.arity,
        "marker_var": s.marker_var,
        "trunc": s.trunc,
        "terms": [
            {"coeff": frac_to_str(c), "exps": list(e[:-1]), "marker": e[-1]} for e, c in terms
        ],
    }


def series_from_json(obj) -> ExpSeries:
    keys = ("arity", "marker_var", "trunc", "terms")
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise ValidationError(f"series JSON needs {', '.join(keys)}")
    arity = _int_from_json(obj["arity"], "arity", 1)
    marker_var = _int_from_json(obj["marker_var"], "marker_var", 0)
    if marker_var >= arity:
        raise ValidationError(f"marker_var {marker_var} must be < arity {arity}")
    trunc = _int_from_json(obj["trunc"], "trunc", 0)
    terms: dict[tuple[int, ...], Fraction] = {}
    for t, exps, coeff in _terms_from_json(obj, arity):
        marker = _int_from_json(t.get("marker", 0), "marker", 0)
        if marker > trunc:
            raise ValidationError(f"term marker {marker} exceeds trunc {trunc}")
        key = exps + (marker,)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return ExpSeries.from_q_poly(MultiPoly(arity + 1, terms), marker_var, trunc)


def potential_to_json(p) -> dict:
    return series_to_json(p) if isinstance(p, ExpSeries) else poly_to_json(p)


def potential_from_json(obj):
    if isinstance(obj, dict) and "marker_var" in obj:
        return series_from_json(obj)
    return poly_from_json(obj)


def chart_to_json(chart: FMChart) -> dict:
    return {
        "n": chart.n,
        "eta": frac_matrix_to_json(chart.eta),
        "charge_d": frac_to_str(chart.charge_d),
        "unity_index": chart.unity_index,
        "potential": potential_to_json(chart.potential),
        "euler": {
            "linear": frac_matrix_to_json(chart.euler_linear),
            "const": [frac_to_str(x) for x in chart.euler_const],
        },
    }


def chart_from_json(obj) -> FMChart:
    if not isinstance(obj, dict):
        raise ValidationError("chart JSON must be an object")
    for key in ("n", "eta", "charge_d", "potential", "euler"):
        if key not in obj:
            raise ValidationError(f"chart JSON is missing {key!r}")
    euler = obj["euler"]
    if not (isinstance(euler, dict) and "linear" in euler
            and isinstance(euler.get("const"), list)):
        raise ValidationError("chart euler field needs 'linear' and a 'const' list")
    return FMChart(
        n=_int_from_json(obj["n"], "n", 1),
        eta=frac_matrix_from_json(obj["eta"], "eta"),
        potential=potential_from_json(obj["potential"]),
        euler_linear=frac_matrix_from_json(euler["linear"], "euler.linear"),
        euler_const=tuple(frac_from_str(x) for x in euler["const"]),
        charge_d=frac_from_str(obj["charge_d"]),
        unity_index=_int_from_json(obj.get("unity_index", 1), "unity_index", 1),
    )


def load_chart(path: str) -> FMChart:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    return chart_from_json(obj)


def dump_json(obj, path: str | None) -> str:
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def complex_vector_from_string(s: str) -> list[complex]:
    """Parse 'a, b, c' with python complex literals (1+2j) per entry."""
    out = [complex_from_json(piece) for piece in s.split(",") if piece.strip()]
    if not out:
        raise ValidationError("empty vector")
    return out


def waypoint_list_from_string(s: str) -> list[list[complex]]:
    """Parse 'u1,u2,..; u1,u2,..; ...' into a non-empty list of u-waypoints."""
    out = [complex_vector_from_string(seg) for seg in s.split(";") if seg.strip()]
    if not out:
        raise ValidationError("empty path")
    return out


def complex_matrix_from_json(obj, what="matrix") -> list[list[complex]]:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValidationError(f"{what} must be a list of rows")
    return [[complex_from_json(x) for x in row] for row in obj]


def skew_matrix_from_json(obj) -> list[list[complex]]:
    """A square complex V with V + V^T = 0 exactly, bare or as {"V": ...}."""
    if isinstance(obj, dict) and "V" in obj:
        obj = obj["V"]
    rows = complex_matrix_from_json(obj, "V")
    if any(len(row) != len(rows) for row in rows):
        raise ValidationError(f"V must be square, got row lengths {[len(r) for r in rows]}")
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            if row[j] != -rows[j][i]:
                raise ValidationError(f"V must be skew: entries ({i + 1},{j + 1}) and "
                                      f"({j + 1},{i + 1}) do not sum to 0")
    return rows


def complex_matrix_to_json(rows) -> list:
    return [[complex_to_json(x) for x in row] for row in rows]
