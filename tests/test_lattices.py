import random
from fractions import Fraction
from operator import mul

import pytest
import sympy

from geocycle import isometries, lattices, linalg
from geocycle.errors import BudgetExceeded, DegenerateGram
from geocycle.lattices import (
    MAX_RANK,
    QuadLattice,
    classify,
    combine,
    determinant,
    eval_form,
    primitive,
    quad_lattice,
    ray,
    standard_lattice,
)
from geocycle.linalg import nonzero_terms, terms_times
from oracles import generator_primitive


def sympy_signature(gram):
    """Independent oracle: count positive/negative eigenvalues (with
    multiplicity) of the Gram matrix via exact real roots of its
    characteristic polynomial."""
    x = sympy.Symbol("x")
    roots = sympy.Poly(sympy.Matrix([list(r) for r in gram]).charpoly(x), x).real_roots()
    plus = sum(1 for r in roots if r > 0)
    minus = sum(1 for r in roots if r < 0)
    return plus, minus


def test_bpq_example():
    l = standard_lattice("bpq", 1, 2)
    assert l.gram == ((1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_hyperbolic_gram():
    assert standard_lattice("hyperbolic").gram == ((0, 1), (1, 0))


def test_k3_is_rank_22_even_unimodular_3_19():
    k3 = standard_lattice("k3")
    assert k3.rank == 22
    c = classify(k3)
    assert c.signature == (3, 19)
    assert c.parity == "even"
    assert c.unimodular


def test_k3_is_built_as_one_block_diagonal_lattice(monkeypatch):
    # the Gram matrix the chain of combines gave, from one congruence
    h, e8n = standard_lattice("hyperbolic"), standard_lattice("e8_neg")
    chained = combine(combine(combine(combine(h, h), h), e8n), e8n).gram
    calls = []
    original = linalg._congruence
    monkeypatch.setattr(linalg, "_congruence", lambda rows: calls.append(rows) or original(rows))
    k3 = lattices.standard_lattice.__wrapped__("k3")  # past the cache
    assert k3.gram == chained and k3.name == "K3"
    assert len(calls) == 1


def test_orthogonal_rays_are_the_primitive_congruence_rows():
    for l in (standard_lattice("k3"), standard_lattice("bpq", 2, 3),
              quad_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])):
        rows = [primitive(row) for row in l.congruence[1]]
        assert [r for r, _ in l.orthogonal_rays] == [ray(row, l) for row in rows]
        assert [t for _, t in l.orthogonal_rays] == list(nonzero_terms(rows))
        gram = linalg.gram_of(rows, l)
        assert all(gram[i][j] == 0 for i in range(l.rank) for j in range(l.rank) if i != j)
    sizes = [len(t) for _, t in standard_lattice("k3").orthogonal_rays]
    assert (min(sizes), max(sizes)) == (1, 8)


def test_primitive_matches_the_generator_oracle():
    rng = random.Random(1802)
    vectors = [(), (0,), (0, 0, 0), (0, 0, -4, 6), (0, -1, 5), (3,), (-7,), (6, -9, 0, 12)]
    for _ in range(2000):
        n = rng.randint(1, 8)
        lead = rng.randint(0, n - 1)
        scale = rng.choice((1, 1, -1, 2, -3, 12, -2**70))
        vectors.append(tuple([0] * lead + [scale * rng.randint(-9, 9) for _ in range(n - lead)]))
    for x in vectors:
        got = primitive(x)
        assert got == generator_primitive(x), x
        assert all(type(c) is int for c in got)
    assert primitive([0, -2, 4]) == (0, 1, -2) and primitive([0, 0]) == (0, 0)


def test_e8_positive_even_unimodular():
    c = classify(standard_lattice("e8_pos"))
    assert c.signature == (8, 0)
    assert c.parity == "even"
    assert c.det == 1


def test_unknown_kind():
    with pytest.raises(ValueError):
        standard_lattice("leech")


def test_bpq_requires_params():
    with pytest.raises(ValueError):
        standard_lattice("bpq")
    with pytest.raises(ValueError):
        standard_lattice("bpq", 0, 3)


def test_bpq_rank_cap_at_the_boundary():
    assert standard_lattice("bpq", 32, 32).rank == MAX_RANK == 64
    assert standard_lattice("bpq", 1, MAX_RANK - 1).rank == MAX_RANK
    for p, q in ((33, 32), (1, MAX_RANK), (10**12, 1)):
        with pytest.raises(BudgetExceeded, match=f"got p \\+ q = {p + q}"):
            standard_lattice("bpq", p, q)


def test_standard_lattices_are_built_once():
    assert standard_lattice("k3") is standard_lattice("k3")
    assert standard_lattice("bpq", 2, 3) is standard_lattice("bpq", 2, 3)
    for _ in range(2):  # a call that raises is not cached
        with pytest.raises(ValueError):
            standard_lattice("bpq", 0, 3)


def test_classify_diagonal_example():
    c = classify(quad_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    assert c == type(c)((1, 2), "odd", 1, True)


def test_classify_hyperbolic():
    c = classify(standard_lattice("hyperbolic"))
    assert c.signature == (1, 1)
    assert c.parity == "even"
    assert c.det == -1
    assert c.unimodular


def test_classify_matches_sympy_on_standard_lattices():
    for l in (
        standard_lattice("hyperbolic"),
        standard_lattice("e8_pos"),
        standard_lattice("e8_neg"),
        standard_lattice("bpq", 2, 3),
    ):
        assert classify(l).signature == sympy_signature(l.gram)


def test_classify_matches_sympy_on_random_symmetric():
    rng = random.Random(31)
    produced = 0
    while produced < 15:
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        try:
            l = quad_lattice(rows)
        except DegenerateGram:
            continue
        produced += 1
        assert classify(l).signature == sympy_signature(l.gram)


def test_combine_signatures_add():
    h = standard_lattice("hyperbolic")
    assert classify(combine(h, h)).signature == (2, 2)


def test_combine_negated_e8():
    e8 = standard_lattice("e8_pos")
    c = classify(combine(e8, e8, negate_b=True))
    assert c.signature == (8, 8)


def test_combine_with_empty_is_identity():
    a = standard_lattice("bpq", 1, 1)
    assert combine(a, QuadLattice(())) is a


def test_combine_negation_swaps_signature():
    a = standard_lattice("bpq", 2, 1)
    c = classify(combine(a, a, negate_b=True))
    assert c.signature == (2 + 1, 1 + 2)


def test_combine_signature_additivity_random():
    rng = random.Random(43)
    pool = [
        standard_lattice("hyperbolic"),
        standard_lattice("bpq", 1, 2),
        standard_lattice("bpq", 3, 1),
        standard_lattice("e8_neg"),
    ]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        pa, qa = classify(a).signature
        pb, qb = classify(b).signature
        assert classify(combine(a, b)).signature == (pa + pb, qa + qb)
        assert classify(combine(a, b, negate_b=True)).signature == (pa + qb, qa + pb)


def test_eval_form_examples():
    b11 = standard_lattice("bpq", 1, 1)
    h = standard_lattice("hyperbolic")
    assert eval_form(b11, (1, 0), (1, 0)) == 1
    assert eval_form(h, (1, 0), (0, 1)) == 1
    assert eval_form(h, (1, -1), (1, -1)) == -2


def test_eval_form_symmetric():
    h = standard_lattice("hyperbolic")
    rng = random.Random(37)
    for _ in range(20):
        x = [rng.randint(-5, 5) for _ in range(2)]
        y = [rng.randint(-5, 5) for _ in range(2)]
        assert eval_form(h, x, y) == eval_form(h, y, x)


def test_eval_form_dimension_mismatch():
    from geocycle.errors import AmbientMismatch

    with pytest.raises(AmbientMismatch):
        eval_form(standard_lattice("hyperbolic"), (1, 0, 0), (0, 1))


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        quad_lattice([[1, 2], [0, 1]])


def test_gram_must_be_nondegenerate():
    with pytest.raises(DegenerateGram):
        quad_lattice([[1, 1], [1, 1]])


def test_gram_entries_must_be_integers():
    with pytest.raises(TypeError):
        QuadLattice(((1.0, 0.0), (0.0, 1.0)))


def test_boolean_gram_entries_are_rejected():
    with pytest.raises(TypeError):
        QuadLattice(((True, 0), (0, -1)))


@pytest.mark.parametrize(
    "rows,error",
    [
        ([[1.7, 0], [0, -1]], TypeError),
        ([[1.0, 0], [0, -1]], TypeError),
        ([[True, 0], [0, -1]], TypeError),
        ([[Fraction(5, 2), 0], [0, -1]], ValueError),
        ([["1/3", 0], [0, -1]], ValueError),
    ],
)
def test_quad_lattice_does_not_truncate(rows, error):
    # entries enter through linalg.cleared: each of these used to be
    # truncated to an integer Gram matrix
    with pytest.raises(error):
        quad_lattice(rows)


def test_quad_lattice_takes_integral_fractions_as_ints():
    l = quad_lattice([[Fraction(4, 2), "3"], [3, Fraction(-1)]])
    assert l.gram == ((2, 3), (3, -1))
    assert all(type(x) is int for row in l.gram for x in row)


def random_symmetric(rng, n):
    """A symmetric integer n x n matrix, mostly zeros so that leading
    minors vanish; a third of them have a zero diagonal, so that only the
    add repair of the congruence can find a pivot."""
    rows = [[0] * n for _ in range(n)]
    zero_diagonal = rng.random() < 1 / 3
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 0, -2, -1, 1, 2, 3))
    return rows


def descartes_signature(m):
    """Independent oracle: (positive, negative) eigenvalue counts of a
    nonsingular symmetric matrix, as the sign changes of the coefficients
    of its characteristic polynomial p(x) and of p(-x). Descartes' count is
    exact here, as every root of p is real."""
    coeffs = m.charpoly().all_coeffs()

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    flipped = [c * (-1) ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)]
    return changes(coeffs), changes(flipped)


def test_classify_matches_sympy_determinant_and_descartes_signature():
    rng = random.Random(1709)
    singular = repaired = zero_diagonal = 0
    for _ in range(240):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n)
        m = sympy.Matrix(rows)
        d = m.det()
        if d == 0:
            singular += 1
            with pytest.raises(DegenerateGram):
                quad_lattice(rows)
            continue
        c = classify(quad_lattice(rows))
        assert c.det == d, rows
        assert c.signature == descartes_signature(m), rows
        repaired += any(m[:k, :k].det() == 0 for k in range(1, n))
        zero_diagonal += n > 1 and not any(rows[i][i] for i in range(n))
    assert singular >= 30 and repaired >= 30 and zero_diagonal >= 20


def test_the_last_pivot_is_the_determinant():
    # on singular matrices too: fewer pivots than the rank there
    rng = random.Random(1710)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n)
        pivots, _ = linalg._congruence(rows)
        last = pivots[-1] if len(pivots) == n else 0
        assert last == sympy.Matrix(rows).det(), rows


def test_one_congruence_serves_the_check_determinant_signature_and_walk(monkeypatch):
    calls = []
    original = linalg._congruence
    monkeypatch.setattr(linalg, "_congruence", lambda rows: calls.append(rows) or original(rows))
    monkeypatch.setattr(linalg, "_bareiss_int", None)
    l = quad_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
    assert determinant(l) == 2
    assert classify(l) == lattices.LatticeClass((1, 2), "even", 2, False)
    g = isometries.isometry_from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], l)
    assert isometries.cartan_dieudonne(g) == [(1, -1, 0)]
    assert len(calls) == 1


def test_classify_sylvester_invariance_integer_congruence():
    # products of integer shears are unimodular and preserve the signature
    rng = random.Random(41)
    l = standard_lattice("bpq", 2, 2)
    base = classify(l).signature
    for _ in range(25):
        conj = [list(r) for r in l.gram]
        for _ in range(4):
            i, j = rng.randrange(4), rng.randrange(4)
            c = rng.randint(-2, 2)
            if i == j:
                continue
            # congruence by the shear row_i += c * row_j
            for col in range(4):
                conj[i][col] += c * conj[j][col]
            for row in range(4):
                conj[row][i] += c * conj[row][j]
        assert classify(quad_lattice(conj)).signature == base


def test_gram_terms_products_equal_the_dense_products():
    # the nonzero terms rebuild the Gram matrix, and every product read off
    # them equals the dense one, on vectors with zeros and 700-bit entries
    rng = random.Random(83)
    cases = [(standard_lattice("k3"), 4), (standard_lattice("e8_neg"), 4),
             (standard_lattice("bpq", 3, 4), 1), (standard_lattice("bpq", 3, 19), 1)]
    for l, most in cases:
        n = l.rank
        assert all(0 < len(row) <= most and all(v for _, v in row) for row in l.gram_terms)
        dense = tuple(tuple(dict(row).get(j, 0) for j in range(n)) for row in l.gram_terms)
        assert dense == l.gram
        for bits in (3, 700):
            for _ in range(10):
                x = [rng.choice((0, rng.randint(-2**bits, 2**bits))) for _ in range(n)]
                y = [rng.choice((0, rng.randint(-2**bits, 2**bits))) for _ in range(n)]
                pairing = tuple(sum(map(mul, row, x)) for row in l.gram)
                assert terms_times(l.gram_terms, x) == pairing
                assert eval_form(l, x, y) == sum(map(mul, y, pairing))
                if any(x):
                    z, z_pairing, q = ray(x, l)
                    assert z_pairing == tuple(sum(map(mul, row, z)) for row in l.gram)
                    assert q == sum(map(mul, z, z_pairing))


def test_quad_lattice_refuses_a_non_square_gram_matrix():
    with pytest.raises(ValueError, match="Gram matrix must be square"):
        quad_lattice([[1, 0]])
