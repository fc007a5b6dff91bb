"""Quantum cohomology of P^2 on the small phase space, plus classical P^d data.

The P^2 potential is the exponential series

    F = 1/2 t1^2 t3 + 1/2 t1 t2^2 + sum_{d>=1} N_d t3^{3d-1} e^{d t2} / (3d-1)!

with the Poincare pairing eta_{ab} = delta_{a+b,4}, Euler field
E = t1 d1 + 3 d2 - t3 d3, and charge 2.  The counts N_d are not taken from a
closed formula: imposing associativity of the induced multiplication degree
by degree yields one consistent linear condition per degree, which is solved
exactly (N_1 = 1 is the seed; degree-1 associativity is vacuous).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .charts import FMChart, wdvv_residuals
from .errors import AlgebraError
from .linalg import FracMatrix, frac_matrix, mat_inverse
from .poly import MultiPoly
from .series import ExpSeries

T1, T2, T3, NU = 0, 1, 2, 3  # t-coordinates and the solver unknown


def p2_eta() -> FracMatrix:
    return frac_matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def _classical_cubic(arity: int, trunc: int) -> ExpSeries:
    half = Fraction(1, 2)
    p = (
        MultiPoly.monomial(arity, (2, 0, 1) + (0,) * (arity - 3), half)
        + MultiPoly.monomial(arity, (1, 2, 0) + (0,) * (arity - 3), half)
    )
    return ExpSeries.from_poly(p, T2, trunc)


def _instanton_term(arity: int, trunc: int, d: int, coeff) -> ExpSeries:
    exps = [0] * arity
    exps[T3] = 3 * d - 1
    poly = MultiPoly.monomial(arity, exps, Fraction(coeff, factorial(3 * d - 1)))
    return ExpSeries(arity, T2, trunc, {d: poly})


def instanton_numbers(max_degree: int) -> list[Fraction]:
    """Rational-curve counts N_1..N_D forced by associativity, exactly.

    At each degree d >= 2 the unknown count enters the degree-d residual
    affinely; the unique value killing it is extracted and verified against
    every residual entry.  Degree 1 imposes no condition and is seeded with
    N_1 = 1 (one line through two points)."""
    if max_degree < 1:
        raise AlgebraError("need max_degree >= 1")
    eta_inv = mat_inverse(p2_eta())
    numbers: list[Fraction] = []
    for d in range(1, max_degree + 1):
        F = _classical_cubic(4, d)
        for k, nk in enumerate(numbers, start=1):
            F = F + _instanton_term(4, d, k, nk)
        F = F + ExpSeries(
            4, T2, d,
            {d: MultiPoly.monomial(
                4, (0, 0, 3 * d - 1, 1), Fraction(1, factorial(3 * d - 1))
            )},
        )
        candidate: Fraction | None = None
        # the unknown NU rides along as a fourth variable
        for _, residual in wdvv_residuals(F, eta_inv):
            part = residual.part(d)
            if part.is_zero():
                continue
            if part.degree_in(NU) > 1:
                raise AlgebraError("residual is not affine in the unknown count")
            r1 = part.diff(NU)
            r0 = part.subs_zero(NU)
            if r1.is_zero():
                if not r0.is_zero():
                    raise AlgebraError(
                        f"degree-{d} associativity has no solution"
                    )
                continue
            exps, coef = next(iter(r1.terms.items()))
            value = -r0.coefficient(exps) / coef
            if candidate is None:
                candidate = value
            elif candidate != value:
                raise AlgebraError(f"inconsistent conditions at degree {d}")
            if not (r0 + r1.scale(value)).is_zero():
                raise AlgebraError(f"degree-{d} residual does not vanish")
        if candidate is None:
            if d != 1:
                raise AlgebraError(f"degree {d} left the count undetermined")
            candidate = Fraction(1)
        numbers.append(candidate)
    return numbers


def build_p2_chart(max_degree: int) -> FMChart:
    """Chart with the P^2 pairing, Euler field and charge 2, truncated at
    marker degree ``max_degree`` (0 keeps the classical cubic)."""
    if max_degree < 0:
        raise AlgebraError("need max_degree >= 0")
    F = _classical_cubic(3, max_degree)
    if max_degree >= 1:
        for d, nd in enumerate(instanton_numbers(max_degree), start=1):
            F = F + _instanton_term(3, max_degree, d, nd)
    return FMChart(
        n=3,
        eta=p2_eta(),
        potential=F,
        euler_linear=frac_matrix([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
        euler_const=(Fraction(0), Fraction(3), Fraction(0)),
        charge_d=Fraction(2),
        unity_index=1,
    )


@dataclass(frozen=True)
class PdClassicalData:
    """Classical cohomology frame data of P^d.

    Basis e_a spans H^{2(a-1)}; eta is the Poincare antidiagonal, mu the
    grading operator, and R the matrix of cup product with the first Chern
    class: R e_a = (d+1) e_{a+1}, R e_{d+1} = 0 (columns indexed by source)."""

    d: int
    eta: tuple[tuple[int, ...], ...]
    mu: tuple[Fraction, ...]
    r: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.d + 1

    def mu_matrix(self) -> FracMatrix:
        n = self.n
        return tuple(
            tuple(self.mu[i] if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        )


def pd_classical_data(d: int) -> PdClassicalData:
    if d < 1:
        raise AlgebraError("need d >= 1")
    n = d + 1
    eta = tuple(
        tuple(1 if a + b == n - 1 else 0 for b in range(n)) for a in range(n)
    )
    mu = tuple(Fraction(2 * k - d, 2) for k in range(n))
    r = tuple(
        tuple(d + 1 if a == b + 1 else 0 for b in range(n)) for a in range(n)
    )
    return PdClassicalData(d, eta, mu, r)


def pd_stokes(d: int) -> list[list[int]]:
    """Upper triangular Stokes matrix with entries binom(d+1, j-i)."""
    if d < 1:
        raise AlgebraError("need d >= 1")
    n = d + 1
    return [
        [comb(d + 1, j - i) if j >= i else 0 for j in range(n)] for i in range(n)
    ]
