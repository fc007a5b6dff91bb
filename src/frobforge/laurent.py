"""Truncated Laurent expansions at x = infinity with exact polynomial coefficients.

No library code uses ``LaurentTail`` any more: the A_n flat coordinates and
residues are single coefficients of ``unfolding.binomial_power_series``.  It
stays for one reason: the benchmark tracer (``perfbench/tracing.py``) imports
it and wraps ``LaurentTail.mul``, so it leaves together with those metrics.

A LaurentTail is exact for every exponent >= ``min_exp``; terms below are
unknown.  ``min_exp is None`` means the expansion is exact everywhere (finitely
many terms, no truncation).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import AlgebraError
from .poly import MultiPoly


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
