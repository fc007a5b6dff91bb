"""Small exact linear algebra over Fraction and over polynomial entries."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import AlgebraError
from .poly import MultiPoly

FracMatrix = tuple[tuple[Fraction, ...], ...]


def frac_matrix(rows: Sequence[Sequence]) -> FracMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:
        raise AlgebraError("matrix shape mismatch")
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def mat_transpose(a: FracMatrix) -> FracMatrix:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_inverse(a: FracMatrix) -> FracMatrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(a)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise AlgebraError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def poly_mat_det(rows: Sequence[Sequence]):
    """Determinant of a small matrix of polynomials or exponential series.

    Division-free Laplace expansion along the rows, bottom-up: every minor on
    the last k rows is computed once, keyed by the bitmask of its columns, so
    the cost is n 2^(n-1) products instead of n!."""
    n = len(rows)
    if n == 0:
        raise AlgebraError("empty matrix")
    minors = {1 << j: rows[-1][j] for j in range(n)}
    for r in range(n - 2, -1, -1):
        row, neg = rows[r], [-x for x in rows[r]]

        def expand(mask):
            """The minor on rows r.. and the columns in ``mask``, along row r."""
            pairs, odd = [], False
            for j in range(n):
                if mask >> j & 1:
                    pairs.append(((neg if odd else row)[j], minors[mask ^ (1 << j)]))
                    odd = not odd
            return row[0].dot(pairs)

        minors = {mask: expand(mask) for mask in range(1 << n) if mask.bit_count() == n - r}
    return minors[(1 << n) - 1]


def is_constant_multiple(p: MultiPoly, q: MultiPoly) -> Fraction | None:
    """Return c with p == c*q (c nonzero), or None if no such constant exists."""
    if p.is_zero() or q.is_zero():
        return None
    if set(p.terms) != set(q.terms):
        return None
    items = iter(q.terms.items())
    e0, c0 = next(items)
    ratio = p.terms[e0] / c0
    for e, c in items:
        if p.terms[e] != ratio * c:
            return None
    return ratio
