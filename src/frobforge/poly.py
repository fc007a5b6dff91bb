"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a map from exponent tuples (one non-negative
int per variable) to nonzero Fraction coefficients.  All arithmetic is exact;
zero coefficients are never stored, so equality of dicts is equality of
polynomials.

Rational values throughout the package are plain ``fractions.Fraction``
(always reduced, positive denominator), re-exported here as ``Rational``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import AlgebraError

Rational = Fraction

Exponent = tuple[int, ...]


def _packed_integer_terms(terms: Mapping[Exponent, Fraction], place: Sequence[int]):
    """(lcm of the denominators, [(packed exponent key, numerator over it)])."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, [
        (sum(map(operator.mul, exps, place)), c.numerator * (den // c.denominator))
        for exps, c in terms.items()
    ]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class MultiPoly:
    """Immutable sparse polynomial with Fraction coefficients.

    ``terms`` maps exponent tuples of length ``arity`` to nonzero Fractions.
    Instances must not be mutated after construction.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Exponent, Fraction] | None = None):
        self.arity = arity
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != arity:
                    raise AlgebraError(f"exponent vector {exps} has length != {arity}")
                if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
                    raise AlgebraError(f"exponents must be non-negative integers: {exps}")
                c = _as_fraction(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def const(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: _as_fraction(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise AlgebraError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, arity: int, exps: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(arity, {tuple(exps): _as_fraction(coeff)})

    # The ring interface shared with ExpSeries: callers generic over both
    # coefficient rings build their constants from a sample element.

    def zero_like(self) -> "MultiPoly":
        return MultiPoly.zero(self.arity)

    def const_like(self, value) -> "MultiPoly":
        return MultiPoly.const(self.arity, value)

    def var_like(self, index: int) -> "MultiPoly":
        return MultiPoly.variable(self.arity, index)

    # -- predicates and inspection -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.arity, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(exps[var] for exps in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.terms.items())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps, Fraction(0)) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return self._raw(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return -(self - other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dot([(self, other)])

    __rmul__ = __mul__

    def dot(self, pairs) -> "MultiPoly":
        """Sum of a * b over the (a, b) pairs, in the ring of this element.

        One fused sum of products: exponents are packed into one int in a base
        no exponent sum reaches, so keys add without carries (Kronecker
        substitution), and every pair is multiplied into one integer
        accumulator over one common denominator, raised to the lcm when a
        pair's denominators need it, so each surviving term becomes a Fraction
        once (Monagan & Pearce, Maple 14, 2009)."""
        coerce = self._coerce
        live, top = [], 0
        for a, b in pairs:
            a, b = coerce(a).terms, coerce(b).terms
            if a and b:
                live.append((a, b))
                if self.arity:
                    top = max(top, max(map(max, a)) + max(map(max, b)))
        base = top + 1
        place = [base**i for i in range(self.arity)]
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        for a, b in live:
            den_a, left = _packed_integer_terms(a, place)
            den_b, right = _packed_integer_terms(b, place)
            d = den_a * den_b
            if den % d:
                up = math.lcm(den, d) // den
                for k in acc:
                    acc[k] *= up
                den *= up
            s = den // d
            for ka, na in left:
                na *= s
                for kb, nb in right:
                    k = ka + kb
                    acc[k] = get(k, 0) + na * nb
        return self._raw(self.arity, {
            tuple([k // p % base for p in place]): Fraction(v, den) for k, v in acc.items() if v
        })

    def scale(self, factor) -> "MultiPoly":
        f = _as_fraction(factor)
        if f == 0:
            return MultiPoly.zero(self.arity)
        return self._raw(self.arity, {e: c * f for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.arity, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.arity:
            raise AlgebraError(f"variable index {var} out of range for arity {self.arity}")
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            e = list(exps)
            e[var] = k - 1
            out[tuple(e)] = coeff * k
        return self._raw(self.arity, out)

    def integrate(self, var: int) -> "MultiPoly":
        """Antiderivative in ``var`` with zero constant of integration."""
        if not 0 <= var < self.arity:
            raise AlgebraError(f"variable index {var} out of range for arity {self.arity}")
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = list(exps)
            e[var] += 1
            out[tuple(e)] = coeff / e[var]
        return self._raw(self.arity, out)

    # -- substitution and evaluation ------------------------------------------

    def subs_zero(self, var: int) -> "MultiPoly":
        """Set variable ``var`` to zero."""
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[var] == 0:
                out[exps] = coeff
        return self._raw(self.arity, out)

    def compose(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute polynomial ``args[i]`` for variable i.

        All substituted polynomials must share one arity, which becomes the
        arity of the result.
        """
        if len(args) != self.arity:
            raise AlgebraError("compose needs one polynomial per variable")
        if not args:
            return MultiPoly.const(0, self.constant_term())
        target = args[0].arity
        if any(a.arity != target for a in args):
            raise AlgebraError("compose arguments must share one arity")
        power_cache: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.const(target, 1)} for _ in range(self.arity)
        ]

        def var_power(i: int, k: int) -> MultiPoly:
            cache = power_cache[i]
            if k not in cache:
                kk = max(cache)
                acc = cache[kk]
                while kk < k:
                    acc = acc * args[i]
                    kk += 1
                    cache[kk] = acc
            return cache[k]

        result = MultiPoly.zero(target)
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(target, coeff)
            for i, k in enumerate(exps):
                if k:
                    term = term * var_power(i, k)
            result = result + term
        return result

    def evaluate(self, point: Sequence) -> complex | Fraction:
        """Evaluate at a point; exact if all inputs are Fraction/int."""
        if len(point) != self.arity:
            raise AlgebraError("point dimension mismatch")
        exact = all(isinstance(x, (int, Fraction)) for x in point)
        total = Fraction(0) if exact else complex(0)
        for exps, coeff in self.terms.items():
            term = coeff if exact else complex(coeff)
            for x, e in zip(point, exps):
                if e:
                    term *= x**e
            total += term
        return total

    # -- structure helpers ---------------------------------------------------

    def drop_degree_at_most(self, k: int) -> "MultiPoly":
        """Remove every monomial of total degree <= k."""
        return self.select(lambda e: sum(e) > k)

    def select(self, keep) -> "MultiPoly":
        """The monomials whose exponent tuple satisfies ``keep``."""
        return self._raw(self.arity, {e: c for e, c in self.terms.items() if keep(e)})

    def weighted_scale(self, fn) -> "MultiPoly":
        """Scale each monomial by fn(exponent_tuple); drops resulting zeros."""
        return MultiPoly(
            self.arity, {e: c * _as_fraction(fn(e)) for e, c in self.terms.items()}
        )

    # -- internal -------------------------------------------------------------

    @classmethod
    def _raw(cls, arity: int, terms: dict[Exponent, Fraction]) -> "MultiPoly":
        obj = object.__new__(cls)
        obj.arity = arity
        obj.terms = terms
        return obj

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise AlgebraError("arity mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.arity, other)
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in sorted(self.terms.items()):
            mono = "*".join(
                f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)
