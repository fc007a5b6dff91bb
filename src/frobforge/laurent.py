"""Univariate expansions at infinity with exact polynomial coefficients.

A ``UPoly`` is a polynomial in one distinguished variable x whose coefficients
are MultiPoly values in auxiliary parameters; a ``LaurentTail`` is a (possibly
truncated) Laurent expansion at x = infinity.  Series coefficients come from
one routine, ``binomial_power_series``, which expands (1 + g(y))^beta in y = 1/x
by Miller's recurrence.  ``lagrange_root_expansion`` reads the root
x(k) of k^m = f(x) off such powers, and the A_n residues of ``unfolding`` are
the series of 1/f' with beta = -1.  ``sylvester_resultant`` is the resultant
of two x-polynomials as a polynomial in the parameters.

A LaurentTail is exact for every exponent >= ``min_exp``; terms below are
unknown.  ``min_exp is None`` means the expansion is exact everywhere (finitely
many terms, no truncation).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import AlgebraError
from .poly import MultiPoly


class UPoly:
    """Polynomial in x with MultiPoly coefficients in ``arity`` parameters."""

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: Mapping[int, MultiPoly]):
        self.arity = arity
        clean: dict[int, MultiPoly] = {}
        for deg, c in coeffs.items():
            if deg < 0:
                raise AlgebraError("UPoly degrees must be non-negative")
            if isinstance(c, (int, Fraction)):
                c = MultiPoly.const(arity, c)
            if c.arity != arity:
                raise AlgebraError("coefficient arity mismatch")
            if not c.is_zero():
                clean[deg] = c
        self.coeffs = clean

    @property
    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> MultiPoly:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[self.degree]

    def diff_x(self) -> "UPoly":
        return UPoly(
            self.arity,
            {d - 1: c.scale(d) for d, c in self.coeffs.items() if d > 0},
        )


class LaurentTail:
    """Truncated Laurent series at x = infinity.

    ``coeffs`` maps integer exponents (bounded above) to MultiPoly values in
    the parameter ring; ``min_exp`` is the lowest exponent still exact, or
    None when the series is a finite exact expansion.
    """

    __slots__ = ("arity", "coeffs", "min_exp")

    def __init__(self, arity: int, coeffs: Mapping[int, MultiPoly], min_exp: int | None):
        self.arity = arity
        clean: dict[int, MultiPoly] = {}
        for e, c in coeffs.items():
            if isinstance(c, (int, Fraction)):
                c = MultiPoly.const(arity, c)
            if not c.is_zero() and (min_exp is None or e >= min_exp):
                clean[e] = c
        self.coeffs = clean
        self.min_exp = min_exp

    @classmethod
    def one(cls, arity: int) -> "LaurentTail":
        return cls(arity, {0: MultiPoly.const(arity, 1)}, None)

    @property
    def top(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int) -> MultiPoly:
        if self.min_exp is not None and e < self.min_exp:
            raise AlgebraError(
                f"coefficient of x^{e} lies below truncation order {self.min_exp}"
            )
        return self.coeffs.get(e, MultiPoly.zero(self.arity))

    def add(self, other: "LaurentTail") -> "LaurentTail":
        if self.min_exp is None:
            m = other.min_exp
        elif other.min_exp is None:
            m = self.min_exp
        else:
            m = max(self.min_exp, other.min_exp)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, MultiPoly.zero(self.arity)) + c
        return LaurentTail(self.arity, out, m)

    def mul(self, other: "LaurentTail") -> "LaurentTail":
        """Product, exact down to the provable truncation order.

        Unknown terms of one factor meet known terms of the other at exponents
        below (min_exp of the one) + (top of the other); the product is exact
        above both such bounds.
        """
        bounds = []
        if self.min_exp is not None:
            t = other.top
            bounds.append(self.min_exp + (t if t is not None else 0))
        if other.min_exp is not None:
            t = self.top
            bounds.append(other.min_exp + (t if t is not None else 0))
        m = max(bounds) if bounds else None
        out: dict[int, MultiPoly] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if m is not None and e < m:
                    continue
                prod = c1 * c2
                out[e] = out.get(e, MultiPoly.zero(self.arity)) + prod
        return LaurentTail(self.arity, out, m)

    def __repr__(self) -> str:
        bits = [f"({c})*x^{e}" for e, c in sorted(self.coeffs.items(), reverse=True)]
        tail = f" + O(x^{self.min_exp - 1})" if self.min_exp is not None else ""
        return (" + ".join(bits) or "0") + tail


def sylvester_resultant(f: UPoly, g: UPoly) -> MultiPoly:
    """Resultant of two x-polynomials as a polynomial in the parameters."""
    from .linalg import poly_mat_det

    m, k = f.degree, g.degree
    if m < 0 or k < 0:
        raise AlgebraError("resultant of a zero polynomial")
    size = m + k
    arity = f.arity
    zero = MultiPoly.zero(arity)
    rows = []
    for shift in range(k):
        row = [zero] * size
        for d, c in f.coeffs.items():
            row[shift + (m - d)] = c
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for d, c in g.coeffs.items():
            row[shift + (k - d)] = c
        rows.append(row)
    return poly_mat_det(rows)


def lagrange_root_expansion(f: UPoly, order: int) -> LaurentTail:
    """Solve k^m = f(x) for x as a descending expansion in k.

    For monic f of degree m >= 2 returns
        x(k) = k + c_0 + c_1/k + ... + c_{order-1}/k^{order-1}
    with exact parameter-polynomial coefficients, such that
    f(x(k)) = k^m + O(k^{m-order-1}).  With f = x^m (1 + g(y)) and y = 1/x,
    Lagrange inversion of k = x (1 + g)^{1/m} gives each coefficient as one
    residue: c_0 = -[y^1] (1 + g)^{1/m} and c_j = -(1/j) [y^{j+1}] (1 + g)^{j/m}.
    """
    m = f.degree
    if m < 2:
        raise AlgebraError("need degree >= 2")
    lead = f.leading_coefficient()
    if not (lead.is_constant() and lead.constant_term() == 1):
        raise AlgebraError("lagrange_root_expansion requires a monic polynomial")
    if order < 1:
        raise AlgebraError("order must be >= 1")
    g = {m - d: c for d, c in f.coeffs.items() if d != m}  # g(y) = sum_k g[k] y^k
    coeffs = {1: MultiPoly.const(f.arity, 1)}
    for j in range(order):
        w = j or 1  # c_0 reads the 1/m power, like c_1
        top = binomial_power_series(g, Fraction(w, m), j + 1, f.arity)[-1]
        coeffs[-j] = top.scale(Fraction(-1, w))
    return LaurentTail(f.arity, coeffs, -(order - 1))


def binomial_power_series(
    g: Mapping[int, MultiPoly], beta: Fraction, degree: int, arity: int
) -> list[MultiPoly]:
    """[y^0], ..., [y^degree] of (1 + sum_k g[k] y^k)^beta by J. C. P. Miller's
    recurrence

        P_0 = 1,  P_i = (1/i) sum_k (beta k - (i - k)) g[k] P_{i-k}

    (Knuth, TAOCP vol. 2, section 4.7)."""
    powers = [MultiPoly.const(arity, 1)]
    for i in range(1, degree + 1):
        powers.append(MultiPoly.zero(arity).dot(
            (gk.scale((beta * k - (i - k)) / i), powers[i - k]) for k, gk in g.items() if k <= i
        ))
    return powers
