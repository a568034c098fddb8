import random
from fractions import Fraction as F

import pytest
import sympy

from geocycle import linalg
from geocycle.errors import AmbientMismatch
from geocycle.lattices import standard_lattice
from geocycle.linalg import (
    as_matrix,
    det,
    frac,
    inertia,
    intersect,
    kernel,
    matrix_inverse,
    perp,
    restricted_definiteness,
    span,
    subspace_sum,
)

B11 = standard_lattice("bpq", 1, 1)
H = standard_lattice("hyperbolic")
B23 = standard_lattice("bpq", 2, 3)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_frac_rejects_booleans():
    with pytest.raises(TypeError):
        frac(True)
    with pytest.raises(TypeError):
        frac(False)


def test_frac_parses_strings_and_ints():
    assert frac("3/4") == F(3, 4)
    assert frac("-2") == F(-2)
    assert frac(7) == F(7)
    assert frac("1e3") == 1000
    assert frac("-2.5E-3") == F(-1, 400)


def test_frac_caps_decimal_exponents():
    assert frac("1e1000") == 10**1000
    for text in ("1e1001", "1e10000000", "1E-10000000", "3.5e+1_000_000", " 1e99999 "):
        with pytest.raises(ValueError, match="decimal exponent"):
            frac(text)


def test_span_full_plane():
    s = span([(1, 0), (0, 1)])
    assert s.dim == 2


def test_span_dependent_rows():
    s = span([(2, 4), (1, 2)])
    assert s.dim == 1
    assert s.basis == ((F(1), F(2)),)


def test_span_rref_form():
    s = span([(1, 1, 0), (0, 1, 1)])
    assert s.basis == ((F(1), F(0), F(-1)), (F(0), F(1), F(1)))


def test_span_of_nothing_is_zero_subspace():
    s = span([], ambient=4)
    assert s.dim == 0 and s.ambient == 4
    s = span([(0, 0, 0)])
    assert s.dim == 0


def test_span_canonical_under_scrambling():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        a = span(rows, ambient=4)
        # random invertible integer recombination of the same rows
        scrambled = list(rows)
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            c = rng.randint(-2, 2)
            if i != j:
                scrambled[i] = [x + c * y for x, y in zip(scrambled[i], scrambled[j])]
        rng.shuffle(scrambled)
        assert span(scrambled, ambient=4) == a


def test_rref_matches_sympy():
    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(rng.randint(1, 4))]
        mine, pivots = linalg.rref(as_matrix(rows))
        ref, ref_pivots = sympy.Matrix(rows).rref()
        nonzero = [r for r in ref.tolist() if any(x != 0 for x in r)]
        assert [list(map(F, map(str, r))) for r in nonzero] == [list(r) for r in mine]
        assert tuple(ref_pivots) == pivots


def test_intersect_coordinate_planes():
    xy = span([(1, 0, 0), (0, 1, 0)])
    yz = span([(0, 1, 0), (0, 0, 1)])
    assert intersect(xy, yz) == span([(0, 1, 0)])


def test_intersect_idempotent():
    a = span([(1, 2, 3), (0, 1, 1)])
    assert intersect(a, a) == a


def test_intersect_transverse_is_zero():
    a = span([(1, 0, 0), (0, 1, 0)])
    b = span([(1, 1, 1)])
    assert intersect(a, b).dim == 0


def test_intersect_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect(span([(1, 0)]), span([(1, 0, 0)]))


def test_dimension_formula_random():
    rng = random.Random(11)
    for _ in range(100):
        a = span([[rng.randint(-3, 3) for _ in range(5)] for _ in range(rng.randint(0, 5))], ambient=5)
        b = span([[rng.randint(-3, 3) for _ in range(5)] for _ in range(rng.randint(0, 5))], ambient=5)
        assert intersect(a, b).dim + subspace_sum(a, b).dim == a.dim + b.dim


def test_perp_diagonal_form():
    assert perp(span([(1, 0)]), B11) == span([(0, 1)])


def test_perp_hyperbolic():
    # pairing against (1,1) under [[0,1],[1,0]] reads x_1 + x_2
    assert perp(span([(1, 1)]), H) == span([(1, -1)])


def test_perp_of_everything():
    assert perp(span([(1, 0), (0, 1)]), H).dim == 0


def test_perp_involution_random():
    rng = random.Random(5)
    for l in (B23, H):
        for _ in range(40):
            a = span(
                [[rng.randint(-4, 4) for _ in range(l.rank)] for _ in range(rng.randint(0, l.rank))],
                ambient=l.rank,
            )
            assert perp(perp(a, l), l) == a


def test_restricted_definiteness_examples():
    assert restricted_definiteness(span([(1, 0)]), B11) == (1, 0, 0)
    assert restricted_definiteness(span([(1, 1)]), B11) == (0, 0, 1)  # isotropic line
    assert restricted_definiteness(span([(1, 0), (0, 1)]), H) == (1, 1, 0)


def test_inertia_additive_on_orthogonal_pieces():
    # e-block and f-block of B(2,3) are orthogonal
    a = span([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    b = span([(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    whole = subspace_sum(a, b)
    ra = restricted_definiteness(a, B23)
    rb = restricted_definiteness(b, B23)
    assert restricted_definiteness(whole, B23) == tuple(x + y for x, y in zip(ra, rb))


def test_det_against_sympy():
    rng = random.Random(13)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            rows = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).det()
            assert det(as_matrix(rows)) == F(str(expected))


def test_det_of_empty_matrix_is_one():
    assert det(()) == 1


def test_kernel_annihilates():
    rng = random.Random(17)
    for _ in range(30):
        m = as_matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        for v in kernel(m):
            assert all(x == 0 for x in linalg.mat_vec(m, v))
        rank = len(linalg.rref(m)[0])
        assert len(kernel(m)) == 5 - rank


def test_kernel_of_no_constraints():
    assert kernel((), ncols=3) == linalg.identity_matrix(3)


def test_matrix_inverse_round_trip():
    rng = random.Random(19)
    for _ in range(20):
        while True:
            rows = as_matrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
            if det(rows) != 0:
                break
        assert linalg.mat_mul(rows, matrix_inverse(rows)) == linalg.identity_matrix(4)


def test_sylvester_invariance_rational_congruence():
    rng = random.Random(23)
    g = B23.gram_matrix()
    base = inertia(g)
    for _ in range(100):
        while True:
            m = as_matrix([[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)])
            if det(m) != 0:
                break
        assert inertia(linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), g), m)) == base


def test_inertia_matches_sympy_root_counts():
    rng = random.Random(29)
    x = sympy.Symbol("x")
    for n in (2, 3, 4):
        for _ in range(10):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            roots = sympy.Poly(sympy.Matrix(rows).charpoly(x), x).real_roots()
            plus = sum(1 for r in roots if r > 0)
            minus = sum(1 for r in roots if r < 0)
            got = inertia(as_matrix(rows))
            assert got == (plus, minus, n - plus - minus)


def test_subspace_contains():
    a = span([(1, 0, 1), (0, 1, 1)])
    assert a.contains((1, 1, 2))
    assert not a.contains((0, 0, 1))
