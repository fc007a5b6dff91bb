"""Monodromy data, the braid-group action on (S, C), and P^d connection matrices.

A monodromy tuple is (form <,>, mu, R, e_1, S, C) with S unit upper
triangular and C constrained by the compatibility identity

    a^T S b = (C a)^T  eta  e^{pi i mu} e^{pi i R}  (C b).

Braid generators act by S -> K S K, C -> C K where K differs from the
identity only in the (i, i+1) block

    [[-s_{i,i+1}, 1], [1, 0]],

the unlisted diagonal entry being fixed to zero (validated by the braid
relations); the inverse generator uses the block [[0, 1], [1, -s_{i,i+1}]].
K S K differs from S only in rows and columns i and i+1, so S moves by an
O(n) update that uses only +, - and * on its entries (with a = i, b = i+1
for sigma_i and a, b swapped for its inverse: row a <- row b - s row a,
row b <- old row a, then the same on columns).  Everything on S is exact:
integer entries stay Python ints, every other entry is a Fraction.  C is an
mpmath matrix at the ambient mpmath precision, rounded once on entry, and
moves by the same column update, each new entry an ``fdot`` rounded once as
in the product C K.  The compatibility check runs at the data's own ``dps``.

For P^d the connection matrix is assembled as C = C' C'': columns of C'' are
the degree components of e^{2 pi i (j-1) h} (h the hyperplane class), and C'
is lower triangular in the Laurent coefficients A_k(d) of
(-1)^{d+1} Gamma^{d+1}(-x) e^{-pi i dbar x} at x -> 0.  The overall scalar of
C' is fixed by requiring the compatibility identity to hold exactly: relative
to the bare Laurent data this multiplies in i * sqrt(2 pi), giving the net
prefactor (-1)^{d+1} i^{1-dbar} (2 pi)^{-d/2}.  With that normalization the
identity reproduces the Euler-pairing Gram matrix binom(d+j-i, d) of the
standard line-bundle collection; for d = 1 this coincides with the
binom(d+1, j-i) Stokes matrix, and for d >= 2 the two lie in one braid orbit
modulo sign diagonals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import mpmath as mp

from .errors import AlgebraError, ValidationError
from .linalg import mat_inverse, mat_mul, mat_transpose
from .projective import pd_classical_data, pd_stokes

Matrix = list[list[int | Fraction]]
MIN_DPS = 15  # fewest working digits for connection-matrix arithmetic
COMPAT_TOL = 1e-8  # largest compatibility residual that passes


def default_dps() -> int:
    """Working digits from FROBFORGE_PRECISION (default 30): an integer >= MIN_DPS."""
    text = os.environ.get("FROBFORGE_PRECISION", "30")
    try:
        if int(text) >= MIN_DPS:
            return int(text)
    except ValueError:
        pass
    raise ValidationError(f"FROBFORGE_PRECISION must be an integer >= {MIN_DPS}, got {text!r}")


def _mp_matrix(rows) -> mp.matrix:
    """``rows`` (nested lists or an mp.matrix) as a new mp.matrix, each entry
    rounded once to the working precision."""
    return mp.matrix(rows).apply(lambda x: +x)


@dataclass
class MonodromyData:
    """(form, mu, R, e1, S, C) with numeric C at ``dps`` working digits."""

    n: int
    form: Sequence[Sequence]       # the bilinear form <,> on V
    mu: Sequence[Sequence]         # diagonalizable, skew w.r.t. the form
    r: Sequence[Sequence]          # nilpotent part, shifts mu-degrees by +1 per graded piece
    e1: Sequence                   # marked vector
    stokes: Sequence[Sequence]     # unit upper triangular
    connection: mp.matrix | None   # central connection matrix
    dps: int = 30

    def validate(self) -> list[str]:
        problems = []
        n = self.n
        S = self.stokes
        for i in range(n):
            if S[i][i] != 1:
                problems.append("Stokes diagonal must be 1")
            for j in range(i):
                if S[i][j] != 0:
                    problems.append("Stokes matrix must be upper triangular")
        with mp.workdps(self.dps):
            G = _mp_matrix(self.form)
            M = _mp_matrix(self.mu)
            skew = G * M + M.T * G
            if max(abs(x) for x in skew) > mp.mpf(10) ** (5 - self.dps):
                problems.append("mu is not skew-symmetric with respect to the form")
        return problems


@dataclass
class CompatibilityReport:
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual < COMPAT_TOL

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"compatibility residual {self.residual:.3e} vs tol {COMPAT_TOL:.1e}: {verdict}"


def check_compatibility(data: MonodromyData) -> CompatibilityReport:
    """Max-norm residual of  S = C^T <,> e^{pi i mu} e^{pi i R} C; the report
    passes below COMPAT_TOL."""
    if data.connection is None:
        raise ValidationError("monodromy data has no connection matrix")
    with mp.workdps(data.dps):
        S = _mp_matrix(data.stokes)
        G = _mp_matrix(data.form)
        M = _mp_matrix(data.mu)
        R = _mp_matrix(data.r)
        C = data.connection
        rhs = C.T * (G * mp.expm(mp.pi * 1j * M) * mp.expm(mp.pi * 1j * R)) * C
        residual = max(abs(rhs[i, j] - S[i, j]) for i in range(data.n) for j in range(data.n))
    return CompatibilityReport(float(residual))


# -- braid action -----------------------------------------------------------------

def _exact(x):
    """x as an int when it is an integer, otherwise as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _braid_pair(S, C):
    """S as a new exact matrix, checked unit upper triangular, and C (when
    given) as a new mp.matrix, checked to have one column per row of S."""
    # ints, the usual entries, skip the Fraction round trip: every move checks S
    S = [[x if type(x) is int else _exact(x) for x in row] for row in S]
    n = len(S)
    for i, row in enumerate(S):
        if len(row) != n:
            raise ValidationError("Stokes matrix must be square")
        if row[i] != 1:
            raise ValidationError("Stokes matrix must have unit diagonal")
        if any(row[:i]):
            raise ValidationError("Stokes matrix must be upper triangular")
    if C is None:
        return S, None
    C = _mp_matrix(C)
    if C.cols != n:
        raise ValidationError(f"C must have {n} columns, got {C.cols}")
    return S, C


def _braid_update(S: Matrix, C: mp.matrix | None, i0: int, inverse: bool) -> None:
    """S -> K S K and C -> C K in place, touching only rows and columns i0 and
    i0 + 1 of S and those two columns of C."""
    s = S[i0][i0 + 1]
    a, b = (i0 + 1, i0) if inverse else (i0, i0 + 1)
    S[a], S[b] = [y - s * x for x, y in zip(S[a], S[b])], S[a]
    for row in S:
        row[a], row[b] = row[b] - s * row[a], row[a]
    if C is not None:
        for r in range(C.rows):
            C[r, a], C[r, b] = mp.fdot([(C[r, b], 1), (C[r, a], -s)]), C[r, a]


def braid_act(S, C=None, i: int = 1, inverse: bool = False):
    """Apply the braid generator sigma_i (or its inverse): S -> KSK, C -> CK.

    S is exact and moves by the O(n) row-and-column update.  C (optional:
    nested lists or an mp.matrix) becomes an mp.matrix at the ambient mpmath
    precision, each entry rounded once, and moves by the matching column
    update.  Returns new (S', C') with C' None when no C was given."""
    S, C = _braid_pair(S, C)
    n = len(S)
    if not 1 <= i <= n - 1:
        raise ValidationError(f"generator index {i} out of range 1..{n - 1}")
    _braid_update(S, C, i - 1, inverse)
    return S, C


def braid_word(S, C=None, word: Sequence[int] = ()):  # e.g. (1, -2, 1)
    """Apply a word of generators; negative entries are inverse generators.

    S is validated and C converted as in braid_act before the first letter,
    so the empty word returns checked copies."""
    S, C = _braid_pair(S, C)
    for g in word:
        if g == 0:
            raise ValidationError("generator 0 is meaningless")
        S, C = braid_act(S, C, abs(g), inverse=g < 0)
    return S, C


def char_poly(M: Matrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, c_1, ..., c_n] of an exact
    matrix, by the Faddeev-LeVerrier recursion."""
    n = len(M)
    coeffs = [Fraction(1)]
    A = [[Fraction(x) for x in row] for row in M]
    Mk = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        Mk[i][i] = Fraction(1)
    for k in range(1, n + 1):
        Mk = mat_mul(A, Mk)
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            Mk[i][i] += ck
    return coeffs


def stokes_monodromy_invariant(S) -> list[Fraction]:
    """Characteristic polynomial of S^{-T} S, exact; a braid-move invariant."""
    Sx = tuple(tuple(Fraction(x) for x in row) for row in S)
    return char_poly(mat_mul(mat_transpose(mat_inverse(Sx)), Sx))


def sign_canonical(S: Matrix, C=None):
    """Canonical representative of the class {D S D, C D : D = diag(+-1)}.

    Signs propagate from the lowest index of each connected component of the
    nonzero off-diagonal pattern, making the first nonzero entry of each
    processed row positive."""
    n = len(S)
    d: list[int | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and d[j] is None:
                    val = S[i][j] if S[i][j] != 0 else S[j][i]
                    if val != 0:
                        d[j] = d[i] if val > 0 else -d[i]
                        stack.append(j)
    signs = [x if x is not None else 1 for x in d]
    S2 = [[x if signs[i] == signs[j] else -x for j, x in enumerate(row)]
          for i, row in enumerate(S)]
    C2 = None
    if C is not None:
        C2 = _mp_matrix(C)
        for j in range(n):
            if signs[j] < 0:
                for i in range(C2.rows):
                    C2[i, j] = -C2[i, j]
    return S2, C2


def _orbit_key(S: Matrix, C: mp.matrix | None) -> tuple:
    key = tuple(tuple(row) for row in S)
    return key if C is None else key + (tuple(mp.nstr(x, 10) for x in C),)


@dataclass
class BraidOrbit:
    classes: list[tuple[Matrix, object]]
    truncated: bool
    depth: int

    @property
    def size(self) -> int:
        return len(self.classes)


def braid_orbit(S, C=None, depth: int = 3, cap: int = 1000) -> BraidOrbit:
    """Breadth-first closure under sigma_i^{+-1} up to ``depth``, deduplicated
    modulo sign diagonals; stops (with a flag) once ``cap`` classes are held.
    C, when given, moves as an mp.matrix at the ambient mpmath precision."""
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    S, C = _braid_pair(S, C)
    n = len(S)
    start = sign_canonical(S, C)
    seen = {_orbit_key(*start)}
    classes = [start]
    frontier = [start]
    truncated = False
    for _ in range(depth):
        if truncated:
            break
        new_frontier = []
        for Scur, Ccur in frontier:
            for i in range(1, n):
                for inv in (False, True):
                    S2, C2 = braid_act(Scur, Ccur, i, inverse=inv)
                    canon = sign_canonical(S2, C2)
                    key = _orbit_key(*canon)
                    if key not in seen:
                        if len(classes) >= cap:
                            truncated = True
                            break
                        seen.add(key)
                        classes.append(canon)
                        new_frontier.append(canon)
                if truncated:
                    break
            if truncated:
                break
        frontier = new_frontier
    return BraidOrbit(classes, truncated, depth)


# -- P^d connection data --------------------------------------------------------------

def gamma_laurent_coefficients(d: int, dps: int) -> list[mp.mpc]:
    """A_k(d), k = 0..d: Laurent coefficients at x -> 0 of
    (-1)^{d+1} Gamma^{d+1}(-x) e^{-pi i dbar x} = x^{-(d+1)} (A_0 + A_1 x + ...),
    computed from log Gamma(1 - x) = euler x + sum_{m>=2} zeta(m) x^m / m."""
    dbar = 1 if d % 2 == 0 else 0
    with mp.workdps(dps):
        order = d + 1
        g = [mp.mpc(0)] * (order + 1)
        if order >= 1:
            g[1] = mp.euler * (d + 1) - mp.pi * 1j * dbar
        for m in range(2, order + 1):
            g[m] = mp.zeta(m) * (d + 1) / m
        a = [mp.mpc(1)] + [mp.mpc(0)] * order
        for k in range(1, order + 1):
            acc = mp.mpc(0)
            for j in range(1, k + 1):
                acc += j * g[j] * a[k - j]
            a[k] = acc / k
        return a[: d + 1]


@dataclass
class PdConnectionData:
    """Central connection data of P^d: C = C' C'' plus the Laurent inputs.

    ``gram`` is the matrix the compatibility identity reproduces exactly,
    binom(d+j-i, d); it equals the binom(d+1, j-i) Stokes matrix for d = 1 and
    is braid-equivalent to it for every d."""

    d: int
    a_coefficients: tuple[mp.mpc, ...]
    c_prime: mp.matrix
    c_double_prime: mp.matrix
    connection: mp.matrix
    dps: int

    @property
    def n(self) -> int:
        return self.d + 1

    def gram(self) -> list[list[int]]:
        n = self.n
        return [
            [comb(self.d + j - i, self.d) if j >= i else 0 for j in range(n)]
            for i in range(n)
        ]

    def monodromy_data(self) -> MonodromyData:
        pd = pd_classical_data(self.d)
        return MonodromyData(
            n=self.n,
            form=pd.eta,
            mu=pd.mu_matrix(),
            r=pd.r,
            e1=tuple(1 if k == 0 else 0 for k in range(self.n)),
            stokes=self.gram(),
            connection=self.connection,
            dps=self.dps,
        )


def pd_connection(d: int, dps: int | None = None) -> PdConnectionData:
    """Assemble C', C'' and C for P^d at ``dps`` >= MIN_DPS working digits
    (None: default_dps())."""
    if d < 1:
        raise AlgebraError("need d >= 1")
    if dps is None:
        dps = default_dps()
    elif dps < MIN_DPS:
        raise ValidationError(f"precision must be at least {MIN_DPS} digits, got {dps}")
    n = d + 1
    dbar = 1 if d % 2 == 0 else 0
    a = gamma_laurent_coefficients(d, dps + 10)
    with mp.workdps(dps + 10):
        pref = (-1) ** (d + 1) * (1j ** (1 - dbar)) * (2 * mp.pi) ** (-mp.mpf(d) / 2)
        cp = mp.matrix(n)
        for al in range(n):
            for be in range(al + 1):
                cp[al, be] = pref * a[al - be]
        cpp = mp.matrix(n)
        for be in range(n):
            for j in range(n):
                cpp[be, j] = (2 * mp.pi * 1j * j) ** be / mp.factorial(be)
        c = cp * cpp
    return PdConnectionData(d, tuple(a), cp, cpp, c, dps)


def pd_monodromy(d: int, dps: int | None = None) -> MonodromyData:
    """Full monodromy tuple of P^d with the binomial Stokes matrix binom(d+1, j-i),
    with which C is compatible exactly when d = 1; for d >= 2 C's partner is the
    Gram form of ``pd_connection(d, dps).monodromy_data()``, a braid away."""
    data = pd_connection(d, dps).monodromy_data()
    data.stokes = pd_stokes(d)
    return data
