import math
import random
from fractions import Fraction as F

import pytest
import sympy

from geocycle import signs, verify
from geocycle.errors import CertificateFailed, InadmissibleV, NotOrthogonalPair
from geocycle.isometries import isometry_from_matrix
from geocycle.lattices import standard_lattice
from geocycle.linalg import ZERO, det, mat_mul
from geocycle.signs import (
    AdmissibleV,
    admissible_v,
    build_k,
    epsilon_general,
    pi_k_matrix,
    random_admissible_v,
    reflection_blocks,
)
from oracles import (
    as_matrix,
    fraction_admissible_v,
    fraction_pi_k_matrix,
    fraction_random_admissible_v,
    fraction_stereographic_unit_vector,
    identity_matrix,
    transpose,
)

V22 = admissible_v(2, [F(3, 5), F(4, 5)])
V33 = admissible_v(3, [F(1, 3), F(2, 3), F(2, 3)])


def expected_diagonal(p):
    return tuple(
        tuple(F(-1 if (i == j and i < p - 1) else (1 if i == j else 0)) for j in range(p))
        for i in range(p)
    )


def _diagonal_unit(i, p, q):
    return tuple(tuple(F(int(r == i and c == i)) for c in range(q)) for r in range(p))


def transport(diamond, star, x):
    """Oracle: the tangent action C -> diamond . C . star^T as two dense
    products."""
    return mat_mul(mat_mul(diamond, x), transpose(star))


def oracle_project_p1(x, v):
    """Oracle: diagonal part of the splitting X = A + C with C.v = 0, row by
    row as A_i = X_ii + (sum_{j != i} v_j X_ij) / v_i, with the residual
    C = X - embed(A) verified to annihilate v exactly."""
    p = len(x)
    if p != v.p or any(len(row) != v.q for row in x):
        raise InadmissibleV(f"tangent matrix must be {v.p} x {v.q}")
    out = []
    for i, row in enumerate(x):
        correction = sum(
            (v.coords[j] * row[j] for j in range(v.q) if j != i and v.coords[j]),
            F(0),
        )
        out.append(row[i] + correction / v.coords[i])
    for i, row in enumerate(x):
        residual = sum(
            ((row[j] - (out[i] if j == i else 0)) * v.coords[j] for j in range(v.q)),
            F(0),
        )
        if residual != 0:
            raise CertificateFailed("projection residual does not annihilate v")
    return tuple(out)


def oracle_action_on_diagonal(diamond, star, v):
    """Oracle: transport each diagonal unit by dense products and project
    it back, one column per unit."""
    p, q = len(diamond), len(star)
    cols = [oracle_project_p1(transport(diamond, star, _diagonal_unit(i, p, q)), v) for i in range(p)]
    return transpose(as_matrix(cols))


def oracle_build_k(p, q, v):
    """Oracle: the block-diagonal matrix of reflection_blocks, certified
    entry by entry through isometry_from_matrix."""
    diamond, star = reflection_blocks(v)
    n = p + q
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(p):
        for j in range(p):
            rows[i][j] = diamond[i][j]
    for i in range(q):
        for j in range(q):
            rows[p + i][p + j] = star[i][j]
    return isometry_from_matrix(rows, standard_lattice("bpq", p, q))


def epsilon_full_determinant_oracle(diamond, star, v):
    """Independent pq x pq determinant: wedge of (transported diagonal
    basis + fixed complement basis) against the untransported columns."""
    p, q = len(diamond), len(star)

    def flatten(mat):
        return [sympy.Rational(x.numerator, x.denominator) for row in mat for x in row]

    complement = []
    for i in range(p):
        for j in range(1, q):
            c = [[F(0)] * q for _ in range(p)]
            c[i][j] = F(1)
            c[i][0] = -v.coords[j] / v.coords[0]
            complement.append(as_matrix(c))
    diag_units = [_diagonal_unit(i, p, q) for i in range(p)]

    def full_det(first_columns):
        cols = [flatten(m) for m in first_columns] + [flatten(m) for m in complement]
        return sympy.Matrix(cols).T.det()

    d_base = full_det(diag_units)
    d_moved = full_det([transport(diamond, star, e) for e in diag_units])
    product = d_moved * d_base  # same sign as the ratio
    return 0 if product == 0 else (1 if product > 0 else -1)


def random_signed_permutation_pair(p, q, rng):
    def signed_perm(n):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[F(0)] * n for _ in range(n)]
        for col, row in enumerate(perm):
            rows[row][col] = F(rng.choice([1, -1]))
        return as_matrix(rows)

    diamond = signed_perm(p)
    star = signed_perm(q)
    if det(diamond) * det(star) != 1:
        star = as_matrix([[-x for x in star[0]]] + [list(r) for r in star[1:]])
    return diamond, star


# ------------------------------------------------------------- admissibility


def test_admissible_examples():
    assert admissible_v(1, [F(1), F(0)]).coords == (F(1), F(0))
    with pytest.raises(InadmissibleV):
        admissible_v(2, [F(1), F(0)])  # second slot must be nonzero when p = 2
    with pytest.raises(InadmissibleV):
        admissible_v(2, [F(3, 5), F(3, 5)])  # not a unit vector
    with pytest.raises(InadmissibleV):
        admissible_v(1, [F(0), F(1)])  # nonzero beyond the first p slots


def test_stereographic_points_are_unit_vectors():
    rng = random.Random(3)
    for _ in range(25):
        u = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
        point = fraction_stereographic_unit_vector(u)
        assert sum(x * x for x in point) == 1


def test_random_admissible_v_is_admissible():
    rng = random.Random(5)
    for p, q in ((1, 1), (2, 4), (4, 6)):
        v = random_admissible_v(p, q, rng)
        assert v.p == p and v.q == q
        assert sum(x * x for x in v.coords) == 1
        assert all(v.coords[j] != 0 for j in range(p))
        assert all(v.coords[j] == 0 for j in range(p, q))


@pytest.mark.parametrize("p,q", [(3, 2), (2, 1), (0, 3)])
def test_random_admissible_v_checks_the_signature_before_drawing(p, q):
    # with p > q the padding (0,) * (q - p) is empty, so the vector would be
    # shaped for (p, p); the sampler refuses as check_signature does
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(InadmissibleV, match=rf"^need 1 <= p <= q, got p={p}, q={q}$"):
        random_admissible_v(p, q, rng)
    assert rng.getstate() == state


# ---------------------------------------------------------------- the blocks


def test_build_k_2_2():
    k = build_k(V22)
    assert k.matrix == (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(-1), F(0), F(0)),
        (F(0), F(0), F(7, 25), F(-24, 25)),
        (F(0), F(0), F(-24, 25), F(-7, 25)),
    )
    assert k.det == 1


def test_build_k_1_2():
    k = build_k(admissible_v(1, [F(1), F(0)]))
    assert k.matrix == (
        (F(-1), F(0), F(0)),
        (F(0), F(-1), F(0)),
        (F(0), F(0), F(1)),
    )


def test_build_k_matches_block_assembly():
    rng = random.Random(23)
    for p in range(1, 7):
        for q in range(p, 7):
            for _ in range(3):
                v = random_admissible_v(p, q, rng)
                assert build_k(v) == oracle_build_k(p, q, v)


def test_negative_block_is_involution():
    from geocycle.linalg import mat_mul

    _, star = reflection_blocks(V33)
    assert mat_mul(star, star) == identity_matrix(3)


# ---------------------------------------------------------------- projection


def test_projection_kills_the_complement():
    # rows proportional to (4, -3) annihilate v = (3/5, 4/5)
    x = as_matrix([[4, -3], [8, -6]])
    assert oracle_project_p1(x, V22) == (F(0), F(0))


def test_projection_of_zero():
    x = as_matrix([[0, 0], [0, 0]])
    assert oracle_project_p1(x, V22) == (F(0), F(0))


def test_projection_worked_example():
    # transported diag(1, 0): first row (7/25, -24/25), second row zero
    x = as_matrix([[F(7, 25), F(-24, 25)], [0, 0]])
    assert oracle_project_p1(x, V22) == (F(-1), F(0))
    action = oracle_action_on_diagonal(*reflection_blocks(V22), V22)
    assert tuple(row[0] for row in action) == (F(-1), F(0))


def test_projection_shape_check():
    with pytest.raises(InadmissibleV):
        oracle_project_p1(as_matrix([[1, 0, 0]]), V22)


# ------------------------------------------------------------- the sign claim


def test_pi_k_2_2():
    mat = pi_k_matrix(V22)
    assert mat == ((F(-1), F(0)), (F(0), F(1)))
    assert det(mat) == -1


def test_pi_k_3_3():
    mat = pi_k_matrix(V33)
    assert mat == expected_diagonal(3)
    assert det(mat) == 1


def test_pi_k_1_2():
    mat = pi_k_matrix(admissible_v(1, [F(1), F(0)]))
    assert mat == ((F(1),),)
    assert det(mat) == 1


def test_pi_k_sweep_small():
    rng = random.Random(7)
    for p in range(1, 7):
        for q in range(p, 7):
            for _ in range(3):
                v = random_admissible_v(p, q, rng)
                mat = pi_k_matrix(v)
                assert mat == expected_diagonal(p)
                assert det(mat) == F(-1) ** (p - 1)
                # pi_k_matrix reads star^T v off v.v instead of building the star
                assert mat == oracle_action_on_diagonal(*reflection_blocks(v), v)


def test_pi_k_matrix_computes_v_dot_v():
    # built around the validation, v.v = 2: a closed form that assumed
    # v.v = 1 would disagree with the dense star here
    v = AdmissibleV(2, (1, 1, 0), 1)
    assert pi_k_matrix(v) == oracle_action_on_diagonal(*reflection_blocks(v), v)
    assert pi_k_matrix(v) != expected_diagonal(2)


# -------------------------------------------------------------------- epsilon


def test_epsilon_of_identity_pair():
    assert epsilon_general(identity_matrix(2), identity_matrix(3), admissible_v(2, [F(3, 5), F(4, 5), F(0)])) == 1


def test_epsilon_matches_pi_k_sign():
    rng = random.Random(11)
    for p, q in ((1, 2), (2, 2), (2, 3), (3, 4)):
        v = random_admissible_v(p, q, rng)
        diamond, star = reflection_blocks(v)
        sign = 1 if det(pi_k_matrix(v)) > 0 else -1
        assert epsilon_general(diamond, star, v) == sign == (-1) ** (p - 1)


def test_epsilon_against_full_determinant_oracle():
    rng = random.Random(13)
    for p, q in ((2, 2), (2, 3), (3, 3)):
        for _ in range(10):
            v = random_admissible_v(p, q, rng)
            diamond, star = random_signed_permutation_pair(p, q, rng)
            assert epsilon_general(diamond, star, v) == epsilon_full_determinant_oracle(
                diamond, star, v
            )


def householder(n, rng):
    """I - 2uu^T along a random rational unit vector u: orthogonal, det -1,
    with dense rational entries."""
    u = fraction_stereographic_unit_vector([F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n - 1)])
    return tuple(tuple(F(int(i == j)) - 2 * u[i] * u[j] for j in range(n)) for i in range(n))


def householder_along(x):
    """I - 2xx^T/(x.x) for a nonzero rational x: orthogonal, det -1, and it
    swaps the unit vectors v and w when x = v - w."""
    xx = sum(a * a for a in x)
    return tuple(tuple(F(int(i == j)) - 2 * a * b / xx for j, b in enumerate(x)) for i, a in enumerate(x))


def random_orthogonal_pairs(p, q, rng):
    """Pairs epsilon_general accepts: the canonical reflection blocks, a
    signed permutation pair, and that pair times two Householder factors."""
    v = random_admissible_v(p, q, rng)
    diamond, star = random_signed_permutation_pair(p, q, rng)
    dense = (mat_mul(diamond, householder(p, rng)), mat_mul(star, householder(q, rng)))
    return v, [reflection_blocks(v), (diamond, star), dense]


def test_action_on_diagonal_matches_projection_oracle():
    # the dense Householder pairs have non-symmetric factors, so reading a
    # row of diamond or of star for its column changes the action
    rng = random.Random(17)
    for p in range(1, 7):
        for q in range(p, 7):
            v, pairs = random_orthogonal_pairs(p, q, rng)
            for diamond, star in pairs:
                d = det(oracle_action_on_diagonal(diamond, star, v))
                assert epsilon_general(diamond, star, v) == (d > 0) - (d < 0)
    v = admissible_v(1, [F(1), F(0)])
    quarter_turn = (identity_matrix(1), as_matrix([[0, -1], [1, 0]]))
    assert oracle_action_on_diagonal(*quarter_turn, v) == ((F(0),),)
    assert epsilon_general(*quarter_turn, v) == 0


def test_epsilon_of_dense_pairs_against_full_determinant_oracle():
    rng = random.Random(19)
    for p, q in ((1, 3), (2, 2), (2, 3), (3, 3)):
        for _ in range(3):
            v, pairs = random_orthogonal_pairs(p, q, rng)
            diamond, star = pairs[2]
            assert epsilon_general(diamond, star, v) == epsilon_full_determinant_oracle(
                diamond, star, v
            )
    # three Householder factors each (det -1 and -1), a star sending v to a
    # unit w with w_i = 0 for some i < p (so s_i = 0 and the sign is 0), and
    # both pairs again with their entries as "n/d" strings
    rng = random.Random(31)
    for p, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (2, 4)):
        for _ in range(3):
            v = random_admissible_v(p, q, rng)
            w = list(fraction_stereographic_unit_vector([F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(q - 2)]))
            w.insert(rng.randrange(p), F(0))
            odd = [mat_mul(householder(n, rng), mat_mul(householder(n, rng), householder(n, rng))) for n in (p, q)]
            killing = (householder(p, rng), householder_along([a - b for a, b in zip(v.coords, w)]))
            for diamond, star in (odd, killing):
                assert det(diamond) == det(star) == -1
                expected = epsilon_full_determinant_oracle(diamond, star, v)
                assert epsilon_general(diamond, star, v) == expected
                strings = [[[str(x) for x in row] for row in m] for m in (diamond, star)]
                assert epsilon_general(*strings, v) == expected
            assert epsilon_general(*killing, v) == 0


def test_epsilon_degenerate_wedge_is_zero():
    # a quarter turn in the negative block carries the diagonal summand
    # entirely into the complement
    v = admissible_v(1, [F(1), F(0)])
    star = as_matrix([[0, -1], [1, 0]])
    assert epsilon_general(identity_matrix(1), star, v) == 0


def test_epsilon_rejects_non_orthogonal():
    v = admissible_v(2, [F(3, 5), F(4, 5)])
    with pytest.raises(NotOrthogonalPair):
        epsilon_general(as_matrix([[1, 1], [0, 1]]), identity_matrix(2), v)


def test_epsilon_rejects_sizes_other_than_v():
    with pytest.raises(NotOrthogonalPair):
        epsilon_general(identity_matrix(3), identity_matrix(2), V22)
    with pytest.raises(NotOrthogonalPair):
        epsilon_general(identity_matrix(2), identity_matrix(3), V22)


def test_epsilon_rejects_det_product_minus_one():
    v = admissible_v(2, [F(3, 5), F(4, 5)])
    with pytest.raises(NotOrthogonalPair):
        epsilon_general(as_matrix([[-1, 0], [0, 1]]), identity_matrix(2), v)


# ------------------------------------------------- integers against Fractions

SIGNATURES = [(p, q) for p in range(1, 7) for q in range(p, 7)]


@pytest.mark.parametrize("seed", [1, 3, 7, 101, 424242])
def test_sampler_and_pi_k_match_the_fraction_oracles(seed):
    # the draws of check_sign_claim: one rng, 25 vectors per signature
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for p, q in SIGNATURES:
        for _ in range(25):
            v = random_admissible_v(p, q, rng)
            coords = fraction_random_admissible_v(p, q, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()
            assert v.coords == coords
            assert v.den > 0 and math.gcd(v.den, *v.num) == 1
            assert sum(x * x for x in v.num) == v.den**2
            assert repr(pi_k_matrix(v)) == repr(fraction_pi_k_matrix(p, coords))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as e:  # the type and the message are compared
        return type(e), str(e)


@pytest.mark.parametrize(
    "diamond,star,outcome",
    [
        ([[1, 0], [0]], [[1, 0], [0, 1]], (ValueError, "ragged matrix")),
        ([[1, 0], [0, 1]], [[1, 0], [0, 1.0]], (TypeError, "cannot use float in exact arithmetic: 1.0")),
        ([[True, 0], [0, 1]], [[1, 0], [0, 1]], (TypeError, "cannot use bool in exact arithmetic: True")),
        ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]], (NotOrthogonalPair, "both factors must be exactly orthogonal")),
        ([[1]], [[1, 0], [0, 1]], (NotOrthogonalPair, "expected sizes 2 and 2")),
        ([[1, 0], [0, 1]], [["3/5", "4/5"], ["4/5", "3/5"]], (NotOrthogonalPair, "both factors must be exactly orthogonal")),
        ([[1, 0], [0, 1]], [["3/5", "4/5"], ["4/5", "-3/5"]], (NotOrthogonalPair, "determinants must multiply to +1")),
    ],
    ids=["ragged", "float", "bool", "non-square", "wrong-size", "non-orthogonal", "det-minus-one"],
)
def test_epsilon_input_errors_keep_their_type_and_message(diamond, star, outcome):
    assert _outcome(epsilon_general, diamond, star, V22) == outcome


@pytest.mark.parametrize(
    "p,coords",
    [
        (2, [0.6, 0.8]),
        (2, [F(3, 5), 0.8]),
        (1, [True]),
        (2, [True, False]),
        (1, [1, False]),
        (2, "3/5"),
        (1, "1"),
        (2, ["3/5", "4/5"]),
        (2, ["-6/10", "0.8", "0"]),
        (2, ["3/5", "3/5"]),
        (2, [F(3, 5), F(3, 5), 0]),
        (1, [2]),
        (2, [1, 0]),
        (3, [F(1, 3), F(2, 3), F(2, 3)]),
        (3, [F(1, 3), 0, F(2, 3), F(2, 3)]),
        (2, [F(3, 5), F(4, 5), 0, 0]),
        (1, [F(3, 5), F(4, 5)]),
        (1, [0, 1]),
        (0, [1]),
        (3, [F(3, 5), F(4, 5)]),
        (1, []),
        (2, ["1/0", "1"]),
        (1, ["1e10000000"]),
        (1, ["x"]),
    ],
)
def test_admissible_v_matches_the_fraction_oracle(p, coords):
    got = _outcome(lambda: admissible_v(p, coords).coords)
    assert got == _outcome(fraction_admissible_v, p, coords)


def test_equal_vectors_have_equal_fields():
    v = admissible_v(2, ["6/10", F(-8, 10), 0])
    assert (v.p, v.num, v.den) == (2, (3, -4, 0), 5)
    assert v == admissible_v(2, ["0.6", "-0.8", "0"]) == AdmissibleV(2, (3, -4, 0), 5)
    assert hash(v) == hash(AdmissibleV(2, (3, -4, 0), 5))
    assert v.coords == (F(3, 5), F(-4, 5), F(0))


def test_pi_k_matrix_zeros_are_the_shared_zero():
    mat = pi_k_matrix(random_admissible_v(3, 4, random.Random(2)))
    assert all(mat[i][j] is ZERO for i in range(3) for j in range(3) if i != j)


# ---------------------------------------------------------------- tooling guard


def test_check_sign_claim_calls_pi_k_matrix_525_times(monkeypatch):
    # the traced benchmark times the sign layer through signs.pi_k_matrix
    calls = []
    pi_k = signs.pi_k_matrix

    def counted(v):
        calls.append((v.p, v.q))
        return pi_k(v)

    monkeypatch.setattr(signs, "pi_k_matrix", counted)
    result = verify.check_sign_claim(5)
    assert result.ok and result.detail == {"cases": 525, "failures": 0}
    assert len(calls) == 525
    assert calls == [pq for pq in SIGNATURES for _ in range(25)]
