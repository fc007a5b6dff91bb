"""Frobenius charts on the base of the A_n unfolding f_s(x) = x^{n+1} + s_1 x^{n-1} + ... + s_n.

The flat pairing and the multiplication come from residues at infinity,

    <d_i, d_j>      = -(n+1) res  (df/ds_i)(df/ds_j) / f'
    <d_i . d_j, d_k> = -(n+1) res  (df/ds_i)(df/ds_j)(df/ds_k) / f',

which are exact polynomials in s.  Since df/ds_i = x^{n-i}, each of them is one
coefficient a_m of the single series (n+1) x^n / f' = sum_m a_m x^{-m}
(``residue_series``): <d_i, d_j> = a_{n+1-i-j} and the triple entry is
a_{2n+1-i-j-k}.  The series is composed with s(t) once per chart and feeds
both the constant-pairing check and the push-forward of the triple tensor.
Flat coordinates are the residues
t_j ∝ res f^{j/(n+1)} dx (Dubrovin, Lecture 4; K. Saito): with y = 1/x and
f = x^{n+1} (1 + g(y)), t_j = ((n+1)/j) [y^{j+1}] (1 + g)^{j/(n+1)}.  Listed in
reverse so the unity direction comes first, they make the pairing the constant
antidiagonal matrix.  The potential is recovered from the structure constants
by exact triple integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import mpmath as mp

from .charts import FMChart
from .errors import AlgebraError, NumericError, require_positive
from .laurent import UPoly, binomial_power_series, lagrange_root_expansion
from .linalg import frac_matrix, poly_mat_det
from .poly import MultiPoly


@dataclass(frozen=True)
class Unfolding:
    """The family x^{n+1} + s_1 x^{n-1} + ... + s_n with its x-derivative."""

    n: int
    f: UPoly
    fprime: UPoly

    @classmethod
    def build(cls, n: int) -> "Unfolding":
        if n < 1:
            raise AlgebraError("need n >= 1")
        coeffs = {n + 1: MultiPoly.const(n, 1)}
        for k in range(1, n + 1):
            coeffs[n - k] = MultiPoly.variable(n, k - 1)
        f = UPoly(n, coeffs)
        return cls(n, f, f.diff_x())


def residue_series(unf: Unfolding) -> list[MultiPoly]:
    """a_0, ..., a_{2n-2} in s, defined by (n+1) x^n / f' = sum_m a_m x^{-m}.

    Since df/ds_i = x^{n-i}, each residue is one coefficient (1-based indices,
    a_m = 0 for m < 0):  <d_i, d_j> = a_{n+1-i-j},  c_ijk = a_{2n+1-i-j-k}."""
    n = unf.n
    # f' = (n+1) x^n (1 + h(y)) with y = 1/x
    h = {n - d: c.scale(Fraction(1, n + 1)) for d, c in unf.fprime.coeffs.items() if d != n}
    return binomial_power_series(h, Fraction(-1), 2 * n - 2, n)


def _series_at(a, n):
    """m -> a_m, the zero polynomial for m < 0."""
    zero = MultiPoly.zero(n)
    return lambda m: a[m] if m >= 0 else zero


def _ds_dt(s_of_t) -> list[list[MultiPoly]]:
    """B[i][a] = ds_i/dt^a."""
    return [[s.diff(a) for a in range(len(s_of_t))] for s in s_of_t]


def _contract(B, entry, keys):
    """{key: sum_m B[m][key[-1]] entry(m, *key[:-1])}: contracting one index at
    a time keeps a push-forward at O(n^4) polynomial products."""
    zero = MultiPoly.zero(len(B))
    return {
        key: zero.dot((B[m][key[-1]], entry(m, *key[:-1])) for m in range(len(B)))
        for key in keys
    }


@dataclass(frozen=True)
class FlatCoordinateMap:
    """Flat coordinates t(s) and the exact inverse s(t).

    Coordinates are listed so that t^1 is the unity direction (the s_n axis)
    and Lie_E t^b = ((n+2-b)/(n+1)) t^b.  ``eta`` is the constant pairing in
    these coordinates and ``jacobian_det`` the constant det(dt/ds).
    ``a_of_t`` is ``residue_series`` composed with s(t).
    """

    n: int
    t_of_s: tuple[MultiPoly, ...]
    s_of_t: tuple[MultiPoly, ...]
    eta: tuple[tuple[Fraction, ...], ...]
    jacobian_det: Fraction
    a_of_t: tuple[MultiPoly, ...]


def flat_coordinates(unf: Unfolding) -> FlatCoordinateMap:
    n = unf.n
    x = lagrange_root_expansion(unf.f, n + 1)
    # x = k + c_1/k + ..., c_j = -(1/j) [y^{j+1}] (1 + g)^{j/(n+1)}, so the
    # flat coordinate t_old_j = -(n+1) c_j
    t_old = [x.coefficient(-j).scale(-(n + 1)) for j in range(1, n + 1)]

    # invert the triangular system t_old_j = s_j + h_j(s_1..s_{j-1});
    # variables of the result are the reversed (unity-first) t coordinates,
    # t_new^b = t_old_{n+1-b}, so t_old_j is variable n - j (0-based).
    s_of_t: list[MultiPoly] = []
    for j in range(1, n + 1):
        h = t_old[j - 1] - MultiPoly.variable(n, j - 1)  # h_j(s_1..s_{j-1})
        expr = MultiPoly.variable(n, n - j) - h.compose(s_of_t + [MultiPoly.zero(n)] * (n - j + 1))
        s_of_t.append(expr)

    t_of_s = tuple(t_old[n - b] for b in range(1, n + 1))  # t_new^b in terms of s

    for b in range(n):
        if t_of_s[b].compose(s_of_t) != MultiPoly.variable(n, b):
            raise AlgebraError("flat coordinate inversion failed")

    # the residue series at s(t), shared with the triple push-forward; with
    # 0-based s indices the pairing entry (i, j) is a_{n-1-i-j}
    a_of_t = tuple(a.compose(s_of_t) for a in residue_series(unf))
    a_at = _series_at(a_of_t, n)
    B = _ds_dt(s_of_t)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    g_B = _contract(B, lambda m, i: a_at(n - 1 - m - i), pairs)
    eta = _contract(B, lambda m, be: g_B[(m, be)], pairs)
    for (be, al), entry in eta.items():
        if not entry.is_constant():
            raise AlgebraError(
                f"pairing entry ({al + 1},{be + 1}) did not become constant: {entry}"
            )
    eta_rows = [[eta[(be, al)].constant_term() for be in range(n)] for al in range(n)]

    jac_t = [[t_of_s[b].diff(i) for i in range(n)] for b in range(n)]
    det = poly_mat_det(jac_t)
    if not det.is_constant() or det.constant_term() == 0:
        raise AlgebraError("Jacobian of t(s) must be a nonzero constant")

    return FlatCoordinateMap(
        n, t_of_s, tuple(s_of_t), frac_matrix(eta_rows), det.constant_term(), a_of_t
    )


def euler_weights(n: int) -> list[Fraction]:
    """Weights of the unity-first flat coordinates: (n+2-b)/(n+1), b=1..n."""
    return [Fraction(n + 2 - b, n + 1) for b in range(1, n + 1)]


def build_an_chart(n: int) -> FMChart:
    """Polynomial chart of the A_n unfolding with charge d = (n-1)/(n+1).

    The Euler field is normalized by 1/(n+1) so that its multiplication
    spectrum equals the critical values of f_s; the potential has all terms
    of total degree <= 2 removed.  Every build checks F_abg = c_abg and the
    quasihomogeneity of F exactly."""
    unf = Unfolding.build(n)
    fc = flat_coordinates(unf)

    # push c_ijk = a_{2n+1-i-j-k} (1-based) through the coordinate change; with
    # 0-based indices the first contraction depends on j + k = p only
    B = _ds_dt(fc.s_of_t)
    a_at = _series_at(fc.a_of_t, n)
    d1 = _contract(
        B,
        lambda m, p: a_at(2 * n - 2 - m - p),
        [(p, al) for p in range(2 * n - 1) for al in range(n)],
    )
    d2 = _contract(
        B,
        lambda j, k, al: d1[(j + k, al)],
        [(k, al, be) for k in range(n) for al in range(n) for be in range(al, n)],
    )
    c_t = _contract(
        B,
        lambda k, al, be: d2[(k, al, be)],
        [(al, be, ga) for al in range(n) for be in range(al, n) for ga in range(be, n)],
    )

    def c_entry(al, be, ga):
        return c_t[tuple(sorted((al, be, ga)))]

    # P = sum t^a t^b t^g c_{abg} over all ordered triples, each sorted one
    # weighted by its number of orderings; every monomial of P has degree >= 3,
    # and F is recovered by dividing each monomial of degree m by m(m-1)(m-2)
    P = MultiPoly.zero(n).dot(
        (MultiPoly.monomial(n, [key.count(i) for i in range(n)], len(set(permutations(key)))), c)
        for key, c in c_t.items()
    )
    F = P.weighted_scale(
        lambda e: Fraction(1, sum(e) * (sum(e) - 1) * (sum(e) - 2))
    )

    for al in range(n):
        da = F.diff(al)
        for be in range(al, n):
            dab = da.diff(be)
            for ga in range(be, n):
                if dab.diff(ga) != c_entry(al, be, ga):
                    raise AlgebraError(
                        "potential integration failed: the structure tensor "
                        "is not a symmetric third derivative"
                    )

    weights = euler_weights(n)
    euler_linear = tuple(
        tuple(weights[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    chart = FMChart(
        n=n,
        eta=fc.eta,
        potential=F,
        euler_linear=euler_linear,
        euler_const=tuple(Fraction(0) for _ in range(n)),
        charge_d=Fraction(n - 1, n + 1),
        unity_index=1,
    )
    # exact quasihomogeneity with no quadratic correction
    if chart.lie_euler(F) != F.scale(Fraction(3) - chart.charge_d):
        raise AlgebraError("quasihomogeneity failed for the unfolding chart")
    return chart


def critical_values(
    unf: Unfolding, s_point, precision: float = 1e-12
) -> list[complex]:
    """Values of f_s at the roots of f'_s for numeric s, multiplicities kept.

    Roots are isolated at working precision derived from ``precision``, which
    must be finite and > 0; non-convergence raises NumericError."""
    require_positive(precision, "precision")
    n = unf.n
    if len(s_point) != n:
        raise AlgebraError("s must have length n")
    point = [Fraction(x) if isinstance(x, int) else x for x in s_point]

    def to_mp(value) -> mp.mpc:
        if isinstance(value, Fraction):
            return mp.mpc(mp.mpf(value.numerator) / mp.mpf(value.denominator))
        return mp.mpc(value)

    digits = max(20, int(-mp.log10(precision)) + 10)
    with mp.workdps(digits):
        exact = all(isinstance(x, (int, Fraction)) for x in point)
        fp_coeffs = {
            d: c.evaluate(point) if exact else complex(c.evaluate(point))
            for d, c in unf.fprime.coeffs.items()
        }
        deg = max(fp_coeffs)
        coeffs = [to_mp(fp_coeffs.get(d, Fraction(0))) for d in range(deg, -1, -1)]
        try:
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=120)
        except mp.libmp.libhyper.NoConvergence as exc:  # pragma: no cover
            raise NumericError(f"root finding did not converge: {exc}") from exc
        f_at = []
        for r in roots:
            val = mp.mpc(0)
            for d, c in unf.f.coeffs.items():
                val += to_mp(c.evaluate(point) if exact else complex(c.evaluate(point))) * r**d
            f_at.append(complex(val))
    return f_at
