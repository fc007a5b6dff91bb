import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobforge.errors import ValidationError
from frobforge.linalg import mat_mul
from frobforge.monodromy import (
    MonodromyData,
    braid_act,
    braid_orbit,
    braid_word,
    char_poly,
    check_compatibility,
    gamma_laurent_coefficients,
    pd_connection,
    pd_monodromy,
    sign_canonical,
    stokes_monodromy_invariant,
)
from frobforge.projective import pd_stokes


def rand_stokes(rng, n):
    return [
        [1 if i == j else (rng.randint(-4, 4) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]


def test_braid_flips_two_by_two():
    S2, _ = braid_act([[1, 2], [0, 1]], None, 1)
    assert S2 == [[1, -2], [0, 1]]


def test_braid_identity_is_fixed():
    S2, _ = braid_act([[1, 0], [0, 1]], None, 1)
    assert S2 == [[1, 0], [0, 1]]


def test_braid_rejects_bad_index():
    with pytest.raises(ValidationError):
        braid_act([[1, 2], [0, 1]], None, 2)


def test_braid_inverse_property():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 5)
        S = [[Fraction(x) for x in row] for row in rand_stokes(rng, n)]
        for i in range(1, n):
            A, _ = braid_act(S, None, i)
            B, _ = braid_act(A, None, i, inverse=True)
            assert B == S


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 7), st.sampled_from(["int", "integral Fraction", "Fraction"]),
       st.booleans())
def test_braid_act_matches_k_s_k(data, n, kind, inverse):
    # the O(n) update against the product K S K, K the identity but for the
    # block [[-s, 1], [1, 0]] (inverse: [[0, 1], [1, -s]]) at rows i, i + 1
    if kind == "Fraction":
        entries = st.builds(Fraction, st.integers(-20, 20), st.integers(2, 6))
    else:
        entries = st.integers(-9, 9).map(int if kind == "int" else Fraction)
    unit = int if kind == "int" else Fraction
    S = [[unit(1) if i == j else (data.draw(entries) if j > i else unit(0))
          for j in range(n)] for i in range(n)]
    before = [row[:] for row in S]
    i = data.draw(st.integers(1, n - 1))
    s = S[i - 1][i]
    K = [[int(a == b) for b in range(n)] for a in range(n)]
    K[i - 1][i] = K[i][i - 1] = 1
    K[i - 1][i - 1], K[i][i] = (0, -s) if inverse else (-s, 0)
    S2, _ = braid_act(S, None, i, inverse)
    assert S2 == mat_mul(mat_mul(K, S), K)
    assert S == before  # the input is not touched
    if kind != "Fraction":
        assert all(type(x) is int for row in S2 for x in row)


def test_braid_relations_modulo_signs():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(3, 5)
        S = rand_stokes(rng, n)
        for i in range(1, n - 1):
            A, _ = braid_word(S, None, (i, i + 1, i))
            B, _ = braid_word(S, None, (i + 1, i, i + 1))
            assert sign_canonical(A)[0] == sign_canonical(B)[0]
        for i in range(1, n):
            for j in range(i + 2, n):
                A, _ = braid_word(S, None, (i, j))
                B, _ = braid_word(S, None, (j, i))
                assert sign_canonical(A)[0] == sign_canonical(B)[0]


def test_braid_preserves_shape_and_invariant():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 5)
        S = rand_stokes(rng, n)
        inv0 = stokes_monodromy_invariant(S)
        for i in range(1, n):
            S2, _ = braid_act(S, None, i)
            for r in range(n):
                assert S2[r][r] == 1
                assert all(S2[r][c] == 0 for c in range(r))
            assert stokes_monodromy_invariant(S2) == inv0


def test_braid_transforms_connection_column_action():
    S = [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    C = [[Fraction(i * 3 + j + 1) for j in range(3)] for i in range(3)]
    S2, C2 = braid_act(S, C, 1)
    # C' = C K: roundtrip through the inverse generator restores both
    S3, C3 = braid_act(S2, C2, 1, inverse=True)
    assert S3 == [[Fraction(x) for x in row] for row in S]
    assert isinstance(C3, mp.matrix) and C3.tolist() == C


def test_empty_word_returns_checked_copies():
    with pytest.raises(ValidationError):
        braid_word([[1, 2], [5, 1]], None, ())
    S, C = [[1, Fraction(2)], [0, 1]], [[1 + 2j, 0.5], [0j, 1 - 1j]]
    S2, C2 = braid_word(S, C, ())
    assert S2 == S and S2 is not S and type(S2[0][1]) is int
    assert isinstance(C2, mp.matrix) and C2.tolist() == C
    with pytest.raises(ValidationError):
        braid_word(S, [[1, 0, 0], [0, 1, 0]], ())


def test_char_poly_exact():
    assert char_poly([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]) == [
        Fraction(1),
        Fraction(-5),
        Fraction(6),
    ]


def test_orbit_of_identity_is_single_class():
    assert braid_orbit([[1, 0], [0, 1]], depth=4).size == 1


def test_orbit_two_by_two_sign_class():
    orbit = braid_orbit([[1, 2], [0, 1]], depth=4)
    assert orbit.size == 1  # the move only flips the sign of the corner


def test_orbit_cap_truncates():
    orbit = braid_orbit(pd_stokes(2), depth=4, cap=5)
    assert orbit.truncated
    assert orbit.size == 5


def test_orbit_rejects_cap_below_one():
    with pytest.raises(ValidationError):
        braid_orbit(pd_stokes(2), cap=0)


@pytest.mark.parametrize("d,size", [(2, 46), (3, 373), (4, 1064)])
def test_pd_orbit_sizes(d, size):
    orbit = braid_orbit(pd_stokes(d), depth=4, cap=100_000)
    assert not orbit.truncated and orbit.size == size


def test_p2_orbit_with_connection_size():
    conn = pd_connection(2)
    orbit = braid_orbit(conn.gram(), conn.connection, depth=4, cap=100_000)
    assert not orbit.truncated and orbit.size == 152


def test_orbit_classes_keep_invariant():
    S = pd_stokes(2)
    inv0 = stokes_monodromy_invariant(S)
    orbit = braid_orbit(S, depth=3, cap=200)
    assert not orbit.truncated
    for cls, _ in orbit.classes:
        assert stokes_monodromy_invariant(cls) == inv0


def test_gamma_coefficients_low_order():
    a = gamma_laurent_coefficients(1, 30)
    assert a[0] == 1
    # x Gamma(-x) = -Gamma(1-x), so the analytic factor is Gamma(1-x)^2;
    # numeric Taylor expansion of the gamma function is the oracle
    with mp.workdps(30):
        series = mp.taylor(lambda x: mp.gamma(1 - x) ** 2, 0, 2)
        assert abs(a[1] - series[1]) < mp.mpf(10) ** -25


def test_connection_building_blocks():
    conn = pd_connection(2, dps=30)
    with mp.workdps(35):
        # column entry for j = 2, degree component 2: (2 pi i)^1 / 1!
        assert abs(conn.c_double_prime[1, 1] - 2 * mp.pi * mp.mpc(0, 1)) < mp.mpf(10) ** -25
    assert conn.a_coefficients[0] == 1
    assert conn.gram() == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_connection_compatibility(d):
    data = pd_connection(d, dps=30).monodromy_data()
    rep = check_compatibility(data)
    assert rep.residual < 1e-20, rep


def test_p1_gram_is_the_binomial_matrix():
    assert pd_connection(1, dps=30).gram() == pd_stokes(1)


def test_gram_and_binomial_stokes_share_an_orbit():
    # the two P^2 Stokes forms are connected by braid moves modulo signs
    gram = pd_connection(2, dps=20).gram()
    target = tuple(tuple(x) for x in sign_canonical(gram)[0])
    orbit = braid_orbit(pd_stokes(2), depth=2, cap=200)
    keys = {tuple(tuple(int(x) for x in row) for row in cls) for cls, _ in orbit.classes}
    assert target in keys


def test_braid_action_preserves_compatibility():
    # S -> KSK together with C -> CK leaves the pairing identity intact
    data = pd_monodromy(1, dps=30)
    with mp.workdps(40):
        for word in ([1], [1, 1], [-1, 1, 1]):
            S2, C2 = braid_word(data.stokes, data.connection, word)
            moved = pd_monodromy(1, dps=30)
            moved.stokes, moved.connection = S2, C2
            rep = check_compatibility(moved)
            assert rep.residual < 1e-12, (word, rep.residual)


def test_braid_act_handles_complex_list_connection():
    C = [[1 + 2j, 0.5], [0j, 1 - 1j]]
    S2, C2 = braid_act([[1, 2], [0, 1]], C, 1)
    # K = [[-2, 1], [1, 0]]: columns of C' are C K
    assert isinstance(C2, mp.matrix)
    assert C2[0, 0] == -2 * (1 + 2j) + 0.5
    assert C2[0, 1] == 1 + 2j
    assert C2[1, 1] == 0j


def test_trivial_compatibility_identity():
    n = 2
    data = MonodromyData(
        n=n,
        form=[[1, 0], [0, 1]],
        mu=[[0, 0], [0, 0]],
        r=[[0, 0], [0, 0]],
        e1=[1, 0],
        stokes=[[1, 0], [0, 1]],
        connection=mp.eye(n),
        dps=30,
    )
    assert check_compatibility(data).residual < 1e-12


def test_compatibility_negative_control():
    data = pd_monodromy(1, dps=30)
    C = data.connection.copy()
    C[1, 0] = C[1, 0] + mp.mpf("1e-3")
    data.connection = C
    assert not check_compatibility(data).passed


def test_monodromy_validation():
    data = pd_monodromy(1, dps=30)
    assert data.validate() == []
    bad = MonodromyData(
        n=2,
        form=[[0, 1], [1, 0]],
        mu=[[1, 0], [0, 1]],  # not skew for this form
        r=[[0, 0], [0, 0]],
        e1=[1, 0],
        stokes=[[1, 1], [0, 1]],
        connection=None,
        dps=20,
    )
    assert bad.validate()
