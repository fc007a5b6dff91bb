"""Truncated exponential series: polynomials decorated with markers e^{k*t'}.

An ExpSeries over coordinates t^1..t^n singles out one coordinate t' (the
``marker_var``) and stores a polynomial coefficient for each marker degree k,

    F = sum_{k=0..trunc} p_k(t) * e^{k t'},

with every p_k an exact MultiPoly in all n coordinates (polynomial
t'-dependence inside p_k is allowed).  Products saturate at the truncation
degree: marker degrees beyond ``trunc`` are dropped.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import cmath

from .errors import AlgebraError
from .poly import MultiPoly


class ExpSeries:
    __slots__ = ("arity", "marker_var", "trunc", "parts")

    def __init__(
        self,
        arity: int,
        marker_var: int,
        trunc: int,
        parts: Mapping[int, MultiPoly] | None = None,
    ):
        if not 0 <= marker_var < arity:
            raise AlgebraError("marker variable index out of range")
        if trunc < 0:
            raise AlgebraError("truncation degree must be >= 0")
        self.arity = arity
        self.marker_var = marker_var
        self.trunc = trunc
        clean: dict[int, MultiPoly] = {}
        if parts:
            for k, p in parts.items():
                if not 0 <= k <= trunc:
                    raise AlgebraError(f"marker degree {k} outside [0, {trunc}]")
                if isinstance(p, (int, Fraction)):
                    p = MultiPoly.const(arity, p)
                if p.arity != arity:
                    raise AlgebraError("part arity mismatch")
                if not p.is_zero():
                    clean[k] = p
        self.parts = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_poly(cls, p: MultiPoly, marker_var: int, trunc: int) -> "ExpSeries":
        return cls(p.arity, marker_var, trunc, {0: p})

    # The ring interface shared with MultiPoly: constants built from a sample
    # element keep its arity, marker and truncation.

    def zero_like(self) -> "ExpSeries":
        return ExpSeries(self.arity, self.marker_var, self.trunc)

    def const_like(self, value) -> "ExpSeries":
        return ExpSeries(
            self.arity, self.marker_var, self.trunc,
            {0: MultiPoly.const(self.arity, value)},
        )

    def var_like(self, index: int) -> "ExpSeries":
        return ExpSeries.from_poly(
            MultiPoly.variable(self.arity, index), self.marker_var, self.trunc
        )

    def _compatible(self, other: "ExpSeries") -> None:
        if (
            self.arity != other.arity
            or self.marker_var != other.marker_var
            or self.trunc != other.trunc
        ):
            raise AlgebraError("incompatible series (arity/marker/truncation)")

    def _coerce(self, other):
        if isinstance(other, ExpSeries):
            self._compatible(other)
            return other
        if isinstance(other, MultiPoly):
            return ExpSeries.from_poly(other, self.marker_var, self.trunc)
        if isinstance(other, (int, Fraction)):
            return self.const_like(other)
        return NotImplemented

    # -- inspection ------------------------------------------------------------

    def part(self, k: int) -> MultiPoly:
        return self.parts.get(k, MultiPoly.zero(self.arity))

    def is_zero(self) -> bool:
        return not self.parts

    def marker_degrees(self):
        return sorted(self.parts)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "ExpSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.parts)
        for k, p in other.parts.items():
            s = out.get(k, MultiPoly.zero(self.arity)) + p
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return ExpSeries(self.arity, self.marker_var, self.trunc, out)

    __radd__ = __add__

    def __neg__(self) -> "ExpSeries":
        return ExpSeries(
            self.arity, self.marker_var, self.trunc,
            {k: -p for k, p in self.parts.items()},
        )

    def __sub__(self, other) -> "ExpSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "ExpSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, MultiPoly] = {}
        for k1, p1 in self.parts.items():
            for k2, p2 in other.parts.items():
                k = k1 + k2
                if k > self.trunc:
                    continue
                prod = p1 * p2
                s = out.get(k, MultiPoly.zero(self.arity)) + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return ExpSeries(self.arity, self.marker_var, self.trunc, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "ExpSeries":
        return ExpSeries(
            self.arity, self.marker_var, self.trunc,
            {k: p.scale(factor) for k, p in self.parts.items()},
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, ExpSeries):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.marker_var == other.marker_var
            and self.trunc == other.trunc
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash(
            (self.arity, self.marker_var, self.trunc, frozenset(self.parts.items()))
        )

    # -- calculus -----------------------------------------------------------------

    def diff(self, var: int) -> "ExpSeries":
        """Partial derivative; on the marker variable each e^{k t'} also
        contributes the factor k."""
        out: dict[int, MultiPoly] = {}
        for k, p in self.parts.items():
            d = p.diff(var)
            if var == self.marker_var and k:
                d = d + p.scale(k)
            if not d.is_zero():
                out[k] = out.get(k, MultiPoly.zero(self.arity)) + d
        return ExpSeries(self.arity, self.marker_var, self.trunc, out)

    def integrate(self, var: int) -> "ExpSeries":
        """Antiderivative in ``var``.

        For marker degree k >= 1 in the marker variable this is iterated
        integration by parts:
            int t'^m q e^{k t'} dt'
              = e^{k t'} * sum_j (-1)^j (m)_j t'^{m-j} q / k^{j+1}.
        """
        out: dict[int, MultiPoly] = {}

        def put(k: int, p: MultiPoly) -> None:
            if p.is_zero():
                return
            s = out.get(k, MultiPoly.zero(self.arity)) + p
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s

        for k, p in self.parts.items():
            if var != self.marker_var or k == 0:
                put(k, p.integrate(var))
                continue
            term = p.scale(Fraction(1, k))
            sign = 1
            while not term.is_zero():
                put(k, term.scale(sign))
                term = term.diff(var).scale(Fraction(1, k))
                sign = -sign
        return ExpSeries(self.arity, self.marker_var, self.trunc, out)

    # -- substitution and evaluation -------------------------------------------------

    def subs_zero(self, var: int) -> "ExpSeries":
        """Set coordinate ``var`` to zero; markers collapse to 1 if it is t'."""
        if var != self.marker_var:
            return ExpSeries(
                self.arity, self.marker_var, self.trunc,
                {k: p.subs_zero(var) for k, p in self.parts.items()},
            )
        total = MultiPoly.zero(self.arity)
        for _, p in self.parts.items():
            total = total + p.subs_zero(var)
        return ExpSeries(self.arity, self.marker_var, self.trunc, {0: total})

    def drop_degree_at_most(self, k: int) -> "ExpSeries":
        """Remove monomials of total degree <= k from the marker-0 part."""
        out = dict(self.parts)
        if 0 in out:
            out[0] = out[0].drop_degree_at_most(k)  # a zero part is dropped on construction
        return ExpSeries(self.arity, self.marker_var, self.trunc, out)

    def evaluate(self, point: Sequence) -> complex:
        t_marker = complex(point[self.marker_var])
        total = 0j
        for k, p in self.parts.items():
            total += complex(p.evaluate(point)) * cmath.exp(k * t_marker)
        return total

    def __repr__(self) -> str:
        bits = []
        for k in sorted(self.parts):
            body = repr(self.parts[k])
            bits.append(body if k == 0 else f"({body})*E^{k}")
        return " + ".join(bits) or "0"
