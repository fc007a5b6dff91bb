"""Frobenius-manifold charts in flat coordinates and their exact checks.

A chart is the data (eta, F, E, d): a constant symmetric nondegenerate metric,
a potential (polynomial or exponential series) in the flat coordinates
t^1..t^n, a linear-plus-constant Euler field, and the charge.  Structure
constants are read off third derivatives,

    c_{ab}^g = eta^{ge} d_e d_a d_b F,

and associativity of the induced multiplication is an exact polynomial
statement (WDVV).  Everything here is pure and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import AlgebraError, ValidationError
from .linalg import FracMatrix, mat_inverse, poly_mat_det
from .poly import MultiPoly
from .series import ExpSeries

Potential = Union[MultiPoly, ExpSeries]


# -- the chart -----------------------------------------------------------------

@dataclass(frozen=True)
class FMChart:
    """A Frobenius-manifold chart in flat coordinates.

    ``unity_index`` is 1-based; the default 1 marks the first coordinate
    direction as the unity e.
    """

    n: int
    eta: FracMatrix
    potential: Potential
    euler_linear: FracMatrix
    euler_const: tuple[Fraction, ...]
    charge_d: Fraction
    unity_index: int = 1

    def __post_init__(self):
        if len(self.eta) != self.n or any(len(r) != self.n for r in self.eta):
            raise ValidationError("eta must be n x n")
        for i in range(self.n):
            for j in range(self.n):
                if self.eta[i][j] != self.eta[j][i]:
                    raise ValidationError("eta must be symmetric")
        if self.potential.arity != self.n:
            raise ValidationError("potential arity must equal n")
        if len(self.euler_linear) != self.n or any(
            len(r) != self.n for r in self.euler_linear
        ):
            raise ValidationError("euler linear part must be n x n")
        if len(self.euler_const) != self.n:
            raise ValidationError("euler constant part must have length n")
        if not 1 <= self.unity_index <= self.n:
            raise ValidationError("unity_index out of range")

    @cached_property
    def eta_inv(self) -> FracMatrix:
        return mat_inverse(self.eta)

    def euler_components(self) -> list[Potential]:
        """E^a(t) as ring elements: linear part applied to t plus constants."""
        comps = []
        for a in range(self.n):
            acc = self.potential.zero_like()
            for b in range(self.n):
                coef = self.euler_linear[a][b]
                if coef:
                    acc = acc + self.potential.var_like(b).scale(coef)
            if self.euler_const[a]:
                acc = acc + self.potential.const_like(self.euler_const[a])
            comps.append(acc)
        return comps

    def lie_euler(self, f: Potential) -> Potential:
        """Lie derivative of a function along the Euler field."""
        return self.potential.dot(
            (ea, f.diff(a)) for a, ea in enumerate(self.euler_components())
        )


def third_derivatives(chart: FMChart) -> list[list[list[Potential]]]:
    """F_{abc} = d_a d_b d_c F, computed once and shared by symmetry."""
    return _third_derivatives(chart.potential, chart.n)


def structure_constants(chart: FMChart) -> list[list[list[Potential]]]:
    """c_{ab}^g = eta^{ge} F_{abe}; symmetric in the two lower indices."""
    return _structure_constants(chart.potential, chart.eta_inv)


def _third_derivatives(F: Potential, n: int) -> list[list[list[Potential]]]:
    """Third derivatives of F in its first n variables."""
    first = [F.diff(a) for a in range(n)]
    second = [[first[a].diff(b) if b >= a else None for b in range(n)] for a in range(n)]
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                val = second[a][b].diff(c)
                for i, j, k in {
                    (a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)
                }:
                    out[i][j][k] = val
    return out


def _structure_constants(F: Potential, eta_inv: FracMatrix) -> list[list[list[Potential]]]:
    """c_{ab}^g of F in its first len(eta_inv) variables."""
    n = len(eta_inv)
    F3 = _third_derivatives(F, n)
    c = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            for g in range(n):
                c[a][b][g] = c[b][a][g] = F.dot(
                    (F.const_like(eta_inv[g][e]), F3[a][b][e]) for e in range(n)
                )
    return c


def wdvv_residuals(F: Potential, eta_inv: FracMatrix):
    """Associativity residuals c_{ab}^e c_{eg}^d - c_{bg}^e c_{ea}^d of the
    multiplication read off F.

    Only the first len(eta_inv) variables are coordinates; further variables
    ride along as parameters.  Yields ((a, b, g, d), residual) with 1-based
    indices and a < g, since the residual is antisymmetric in (a, g)."""
    n = len(eta_inv)
    c = _structure_constants(F, eta_inv)
    minus_c = [[[-x for x in cab] for cab in ca] for ca in c]
    for a in range(n):
        for g in range(a + 1, n):
            for b in range(n):
                for dd in range(n):
                    yield (a + 1, b + 1, g + 1, dd + 1), F.dot(
                        [(c[a][b][e], c[e][g][dd]) for e in range(n)]
                        + [(minus_c[b][g][e], c[e][a][dd]) for e in range(n)]
                    )


@dataclass
class WdvvReport:
    passed: bool
    checked: int
    nonzero: list[tuple[tuple[int, int, int, int], Potential]] = field(default_factory=list)

    def __str__(self):
        if self.passed:
            return f"WDVV: all {self.checked} residuals identically zero"
        worst = ", ".join(str(idx) for idx, _ in self.nonzero[:5])
        return f"WDVV: {len(self.nonzero)} nonzero residuals (e.g. at {worst})"


def check_wdvv(chart: FMChart) -> WdvvReport:
    """Associativity residuals c_{ab}^e c_{eg}^d - c_{bg}^e c_{ea}^d.

    A chart passes iff every residual is the zero polynomial (zero through
    the truncation degree for exponential series).
    """
    nonzero = []
    checked = 0
    for idx, residual in wdvv_residuals(chart.potential, chart.eta_inv):
        checked += 1
        if not residual.is_zero():
            nonzero.append((idx, residual))
    return WdvvReport(passed=not nonzero, checked=checked, nonzero=nonzero)


@dataclass
class AxiomReport:
    unity_ok: bool
    quasihomogeneous: bool
    quadratic_defect: Potential | None
    notes: str

    @property
    def passed(self) -> bool:
        return self.unity_ok and self.quasihomogeneous

    def __str__(self):
        bits = [
            f"unity axiom: {'ok' if self.unity_ok else 'VIOLATED'}",
            f"quasihomogeneity: {'ok' if self.quasihomogeneous else 'VIOLATED'}",
            self.notes,
        ]
        return "; ".join(bits)


def check_axioms(chart: FMChart) -> AxiomReport:
    """Unity axiom d_e d_a d_b F = eta_{ab}, and quasihomogeneity
    Lie_E F = (3-d) F up to at most quadratic terms.

    Symmetry of the covariant derivative of the multiplication tensor holds
    automatically because the tensor is a third derivative of the potential;
    the report records this rather than recomputing it.
    """
    n = chart.n
    u = chart.unity_index - 1
    F3 = third_derivatives(chart)
    unity_ok = True
    for a in range(n):
        for b in range(a, n):
            expect = chart.potential.const_like(chart.eta[a][b])
            if F3[u][a][b] != expect:
                unity_ok = False
    residual = chart.lie_euler(chart.potential) - chart.potential.scale(
        Fraction(3) - chart.charge_d
    )
    quasi = residual.drop_degree_at_most(2).is_zero()
    defect = residual if not residual.is_zero() else None
    notes = (
        "symmetry of (grad c) holds identically since c is a third derivative "
        "of the potential"
    )
    return AxiomReport(unity_ok, quasi, defect, notes)


def virasoro_central_charge(chart: FMChart) -> Fraction:
    """Central charge factor 6 (1-d)^{-2} (n - 4 tr mu^2) with
    mu = (2-d)/2 * Id - (linear part of E).  Rejects d = 1 (pole)."""
    if chart.charge_d == 1:
        raise AlgebraError("central charge formula has a pole at charge 1")
    n = chart.n
    mu = mu_matrix(chart)
    tr_mu2 = sum(mu[i][j] * mu[j][i] for i in range(n) for j in range(n))
    return 6 * (1 - chart.charge_d) ** -2 * (n - 4 * tr_mu2)


def mu_matrix(chart: FMChart) -> FracMatrix:
    """mu = (2-d)/2 * Id - grad E, the grading operator in the flat frame."""
    n = chart.n
    half = (Fraction(2) - chart.charge_d) / 2
    return tuple(
        tuple(
            (half if i == j else Fraction(0)) - chart.euler_linear[i][j]
            for j in range(n)
        )
        for i in range(n)
    )


@dataclass
class IntersectionFormMatrix:
    entries: list[list[Potential]]
    determinant: Potential

    def entry(self, a: int, b: int) -> Potential:
        """1-based upper-index entry g^{ab}(t)."""
        return self.entries[a - 1][b - 1]


def intersection_form(chart: FMChart) -> IntersectionFormMatrix:
    """g^{ab}(t) = E^e(t) c_e^{ab}(t), indices raised with eta.

    At points where E(t) equals the unity vector this reduces to eta^{ab};
    its determinant is the discriminant polynomial.
    """
    n = chart.n
    eta_inv = chart.eta_inv
    F3 = third_derivatives(chart)
    E = chart.euler_components()
    # g^{ab} = E^e eta^{am} eta^{bk} F_{emk}, one fused sum per entry
    rows = [
        [
            chart.potential.dot(
                (E[e].scale(eta_inv[a][m] * eta_inv[b][k]), F3[e][m][k])
                for e in range(n)
                for m in range(n)
                if eta_inv[a][m]
                for k in range(n)
                if eta_inv[b][k]
            )
            for b in range(n)
        ]
        for a in range(n)
    ]
    return IntersectionFormMatrix(rows, poly_mat_det(rows))
