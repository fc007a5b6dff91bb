"""Truncated exponential series: one MultiPoly in (t, q = e^{t'}) with a q-degree cap.

An ExpSeries over coordinates t^1..t^n singles out one coordinate t' (the
``marker_var``) and stands for

    F = sum_{k=0..trunc} p_k(t) * e^{k t'},

with every p_k an exact polynomial in all n coordinates (polynomial
t'-dependence inside p_k is allowed).  It is stored as the single MultiPoly
``poly`` in n + 1 variables whose last variable is q = e^{t'}, so p_k is the
coefficient of q^k; ``part(k)`` reads it back.  Products drop every power of
q beyond ``trunc``, and d/dt' acts as d/dt' + q d/dq.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Sequence

import cmath

from .errors import AlgebraError
from .poly import MultiPoly


class ExpSeries:
    __slots__ = ("arity", "marker_var", "trunc", "poly")

    def __init__(
        self,
        arity: int,
        marker_var: int,
        trunc: int,
        parts: Mapping[int, MultiPoly] | None = None,
    ):
        """The series sum_k parts[k] e^{k t'}, t' = t^{marker_var + 1}."""
        terms = {}
        for k, p in (parts or {}).items():
            if isinstance(p, (int, Fraction)):
                p = MultiPoly.const(arity, p)
            if p.arity != arity:
                raise AlgebraError("part arity mismatch")
            terms.update((e + (k,), c) for e, c in p.terms.items())
        self._init(MultiPoly(arity + 1, terms), marker_var, trunc)

    def _init(self, poly: MultiPoly, marker_var: int, trunc: int) -> None:
        arity = poly.arity - 1
        if not 0 <= marker_var < arity:
            raise AlgebraError("marker variable index out of range")
        if trunc < 0:
            raise AlgebraError("truncation degree must be >= 0")
        if poly.degree_in(arity) > trunc:
            raise AlgebraError(f"marker degree {poly.degree_in(arity)} outside [0, {trunc}]")
        self.arity = arity
        self.marker_var = marker_var
        self.trunc = trunc
        self.poly = poly

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_poly(cls, p: MultiPoly, marker_var: int, trunc: int) -> "ExpSeries":
        return cls(p.arity, marker_var, trunc, {0: p})

    @classmethod
    def from_q_poly(cls, poly: MultiPoly, marker_var: int, trunc: int) -> "ExpSeries":
        """The series stored as ``poly``, whose last variable is q = e^{t'}."""
        obj = object.__new__(cls)
        obj._init(poly, marker_var, trunc)
        return obj

    def _like(self, poly: MultiPoly) -> "ExpSeries":
        """Wrap a q-polynomial already known to respect the q-degree cap."""
        obj = object.__new__(ExpSeries)
        obj.arity, obj.marker_var, obj.trunc, obj.poly = self.arity, self.marker_var, self.trunc, poly
        return obj

    # The ring interface shared with MultiPoly: constants built from a sample
    # element keep its arity, marker and truncation.

    def zero_like(self) -> "ExpSeries":
        return self._like(MultiPoly.zero(self.arity + 1))

    def const_like(self, value) -> "ExpSeries":
        return self._like(MultiPoly.const(self.arity + 1, value))

    def var_like(self, index: int) -> "ExpSeries":
        return self._like(self._coerce(MultiPoly.variable(self.arity, index)))

    def _coerce(self, other):
        """The q-polynomial of a compatible series, polynomial or rational."""
        if isinstance(other, ExpSeries):
            if (other.arity, other.marker_var, other.trunc) != (
                self.arity, self.marker_var, self.trunc,
            ):
                raise AlgebraError("incompatible series (arity/marker/truncation)")
            return other.poly
        if isinstance(other, MultiPoly):
            return MultiPoly(other.arity + 1, {e + (0,): c for e, c in other.terms.items()})
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.arity + 1, other)
        return NotImplemented

    # -- inspection ------------------------------------------------------------

    def part(self, k: int) -> MultiPoly:
        """The polynomial coefficient p_k of e^{k t'}."""
        return MultiPoly(
            self.arity, {e[:-1]: c for e, c in self.poly.terms.items() if e[-1] == k}
        )

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def marker_degrees(self):
        return sorted({e[-1] for e in self.poly.terms})

    def lift_point(self, point: Sequence) -> list:
        """The point (t, e^{t'}) at which ``poly`` takes the series' value."""
        return [*point, cmath.exp(point[self.marker_var])]

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "ExpSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._like(self.poly + other)

    __radd__ = __add__

    def __neg__(self) -> "ExpSeries":
        return self._like(-self.poly)

    def __sub__(self, other) -> "ExpSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._like(self.poly - other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "ExpSeries":
        if self._coerce(other) is NotImplemented:
            return NotImplemented
        return self.dot([(self, other)])

    __rmul__ = __mul__

    def dot(self, pairs) -> "ExpSeries":
        """Sum of a * b over the (a, b) pairs: one fused sum of q-polynomial
        products, truncated once at the end (truncation is linear)."""
        coerce, trunc = self._coerce, self.trunc
        total = self.poly.dot((coerce(a), coerce(b)) for a, b in pairs)
        return self._like(total.select(lambda e: e[-1] <= trunc))

    def scale(self, factor) -> "ExpSeries":
        return self._like(self.poly.scale(factor))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.poly == self._coerce(other)
        if not isinstance(other, ExpSeries):
            return NotImplemented
        return (self.arity, self.marker_var, self.trunc, self.poly) == (
            other.arity, other.marker_var, other.trunc, other.poly,
        )

    def __hash__(self):
        return hash((self.arity, self.marker_var, self.trunc, self.poly))

    # -- calculus -----------------------------------------------------------------

    def diff(self, var: int) -> "ExpSeries":
        """Partial derivative; on the marker variable it is d/dt' + q d/dq."""
        d = self.poly.diff(var)
        if var == self.marker_var:
            d = d + self.poly.weighted_scale(lambda e: e[-1])
        return self._like(d)

    def integrate(self, var: int) -> "ExpSeries":
        """Antiderivative in ``var``.

        In the marker variable each monomial with q-degree k >= 1 integrates
        by parts in closed form:
            int t'^m q^k dt' = q^k sum_{j=0..m} (-1)^j (m)_j t'^{m-j} / k^{j+1},
        with (m)_j = m (m-1) ... (m-j+1).
        """
        if var != self.marker_var:
            return self._like(self.poly.integrate(var))
        out: defaultdict[tuple[int, ...], Fraction] = defaultdict(Fraction)
        for exps, coeff in self.poly.terms.items():
            m, k = exps[var], exps[-1]
            e = list(exps)
            if not k:
                e[var] = m + 1
                out[tuple(e)] += coeff / (m + 1)
                continue
            c = coeff / k
            for j in range(m + 1):
                e[var] = m - j
                out[tuple(e)] += c
                c = -c * (m - j) / k
        return self._like(MultiPoly(self.arity + 1, out))

    # -- substitution and evaluation -------------------------------------------------

    def subs_zero(self, var: int) -> "ExpSeries":
        """Set coordinate ``var`` to zero; if it is t', q = e^{t'} becomes 1."""
        if var != self.marker_var:
            return self._like(self.poly.subs_zero(var))
        out: defaultdict[tuple[int, ...], Fraction] = defaultdict(Fraction)
        for exps, coeff in self.poly.terms.items():
            if not exps[var]:
                out[exps[:-1] + (0,)] += coeff
        return self._like(MultiPoly(self.arity + 1, out))

    def drop_degree_at_most(self, k: int) -> "ExpSeries":
        """Remove monomials of total degree <= k in t from the q^0 part."""
        return self._like(self.poly.select(lambda e: e[-1] or sum(e) > k))

    def evaluate(self, point: Sequence) -> complex:
        return complex(self.poly.evaluate(self.lift_point(point)))

    def __repr__(self) -> str:
        return f"{self.poly!r} with t{self.arity + 1} = exp(t{self.marker_var + 1})"
