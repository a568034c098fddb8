import enum
import math
import random
from fractions import Fraction as F
from operator import mul

import pytest
import sympy

from geocycle import linalg
from geocycle.errors import AmbientMismatch, NotSquare
from geocycle.lattices import quad_lattice, standard_lattice
from geocycle.linalg import (
    det,
    frac,
    inertia,
    intersect,
    perp,
    restricted_definiteness,
    span,
    subspace_sum,
)
from oracles import (
    as_matrix,
    frac_cleared,
    fraction_det,
    fraction_diagonalize_symmetric,
    fraction_inertia,
    fraction_intersect,
    fraction_kernel,
    fraction_perp,
    fraction_rref,
    identity_matrix,
    mat_mul_restricted_definiteness,
    mat_vec,
    oracle_matrix_inverse,
    side_matrix_congruence,
    transpose,
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


class Weight(enum.IntEnum):
    THREE = 3


class Text(str):
    pass


DIGITS_5000 = "1" * 5000
INT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"
# per input, frac's value, or the exception type and the start of its message
RATIO_TABLE = [
    (0, F(0)),
    (-7, F(-7)),
    (10**40, F(10**40)),
    (True, (TypeError, "cannot use bool in exact arithmetic: True")),
    (False, (TypeError, "cannot use bool in exact arithmetic: False")),
    (0.75, (TypeError, "cannot use float in exact arithmetic: 0.75")),
    (1.0, (TypeError, "cannot use float in exact arithmetic: 1.0")),
    (F(3, 4), F(3, 4)),
    (F(-6, 4), F(-3, 2)),
    ("3/4", F(3, 4)),
    (" 5/4 ", F(5, 4)),
    ("0.75", F(3, 4)),
    ("1_000", F(1000)),
    ("+6/4", F(3, 2)),
    ("1e1000", F(10**1000)),
    ("1e1001", (ValueError, "decimal exponent of '1e1001' is beyond ±1000")),
    ("1E-1001", (ValueError, "decimal exponent of '1E-1001' is beyond ±1000")),
    ("1/0", (ValueError, "zero denominator in '1/0'")),
    ("3/-4", (ValueError, "Invalid literal for Fraction: '3/-4'")),
    (DIGITS_5000, (ValueError, INT_LIMIT)),
    ("1/" + DIGITS_5000, (ValueError, INT_LIMIT)),
    (Weight.THREE, F(3)),
    (Text("3/4"), F(3, 4)),
    (Text("1/0"), (ValueError, "zero denominator in '1/0'")),
    (None, (TypeError, "cannot use NoneType in exact arithmetic: None")),
]


@pytest.mark.parametrize("x,expected", RATIO_TABLE, ids=lambda x: repr(x)[:20])
def test_frac_and_ratio_read_a_scalar_alike(x, expected):
    # frac is Fraction(*_ratio(x)) for anything but a Fraction: one parser,
    # with the same value, exception type and message on every input, int
    # and str subclasses included
    if isinstance(expected, F):
        got = frac(x)
        assert type(got) is F and got == expected
        assert type(got.numerator) is int and type(got.denominator) is int
        n, d = linalg._ratio(x)
        assert (type(n), type(d)) == (int, int) and (n, d) == expected.as_integer_ratio()
        return
    error, message = expected
    for read in (frac, linalg._ratio):
        with pytest.raises(error) as caught:
            read(x)
        assert type(caught.value) is error and str(caught.value).startswith(message)


def test_frac_returns_a_fraction_as_it_is():
    x = F(3, 4)
    assert frac(x) is x


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


def degenerate_span(l, u, rng, rows):
    """The isotropic vector u with `rows` random integer vectors of its
    orthogonal complement: u lies in the radical of their span."""
    complement = perp(span([u]), l).basis
    combos = [[rng.randint(-3, 3) for _ in complement] for _ in range(rows)]
    return span([u] + [[sum(c * b[i] for c, b in zip(cs, complement)) for i in range(l.rank)]
                       for cs in combos])


def small_subspace(ambient, rng, max_rows):
    """The span of up to max_rows random rows with entries in [-4, 4]."""
    rows = rng.randint(0, max_rows)
    return span([[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(rows)], ambient=ambient)


def unit(n, *ones):
    return [1 if i in ones else 0 for i in range(n)]


@pytest.mark.parametrize(
    "l,u,v",
    [
        (B23, unit(5, 0, 2), unit(5, 0)),
        (standard_lattice("bpq", 3, 4), unit(7, 1, 5), unit(7, 1)),
        (standard_lattice("bpq", 3, 19), unit(22, 0, 3), unit(22, 0)),
        (standard_lattice("k3"), unit(22, 0), unit(22, 1)),
    ],
    ids=["B(2,3)", "B(3,4)", "B(3,19)", "K3"],
)
def test_restricted_definiteness_matches_the_fraction_product(l, u, v):
    # u is isotropic and B(u, v) != 0, so <u, v> is a hyperbolic plane and
    # every space through it is indefinite
    rng = random.Random(l.rank)
    spaces = [span((), ambient=l.rank)]
    spaces += [small_subspace(l.rank, rng, 6) for _ in range(40)]
    spaces += [degenerate_span(l, u, rng, rng.randint(0, 4)) for _ in range(15)]
    spaces += [span([u, v, *small_subspace(l.rank, rng, 3).basis]) for _ in range(5)]
    kinds = set()
    for a in spaces:
        sig = restricted_definiteness(a, l)
        assert sig == mat_mul_restricted_definiteness(a, l)
        assert sum(sig) == a.dim
        kinds.add("zero" if a.dim == 0 else "degenerate" if sig[2] else
                  "indefinite" if sig[0] and sig[1] else "definite")
    assert kinds == {"zero", "degenerate", "indefinite", "definite"}
    assert any(x.denominator > 1 for a in spaces for row in a.basis for x in row)


def test_restricted_definiteness_certifies_in_integers(monkeypatch):
    # each RREF row is scaled to integers before its Gram matrix is formed
    seen = []
    original = linalg.inertia
    monkeypatch.setattr(linalg, "inertia", lambda m: seen.append(m) or original(m))
    a = span([(F(1, 2), F(1, 3), 0, 0, 1), (0, 1, F(2, 7), 0, 0)])
    assert restricted_definiteness(a, B23) == mat_mul_restricted_definiteness(a, B23)
    assert seen and all(type(x) is int for row in seen[0] for x in row)


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


def test_det_of_triangular_matrices_matches_fraction_elimination():
    rng = random.Random(2306)

    def entry(zero_share):
        if rng.random() < zero_share:
            return rng.choice((0, F(0)))
        return rng.choice((rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9))))

    shapes = 0
    for n in range(1, 8):
        for _ in range(30):
            rows = [[entry(0.2) for _ in range(n)] for _ in range(n)]
            kind = rng.choice(("lower", "upper", "diagonal", "dense"))
            for i in range(n):
                for j in range(n):
                    if (kind == "lower" and j > i) or (kind == "upper" and j < i) or (
                        kind == "diagonal" and i != j
                    ):
                        rows[i][j] = rng.choice((0, F(0)))
            m = tuple(map(tuple, rows))
            shapes += kind != "dense" and any(not m[i][i] for i in range(n))
            value = det(m)
            assert type(value) is F and value == fraction_det(m), m
    assert shapes > 10  # triangular matrices with a zero on the diagonal


def test_det_of_triangular_matrices_is_the_diagonal_product():
    # the product of the diagonal, which det returned for triangular
    # matrices of ints and Fractions before every matrix went through Bareiss
    rng = random.Random(2307)
    for n in range(1, 8):
        for _ in range(20):
            diagonal = [rng.choice((0, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9)))) for _ in range(n)]
            lower = rng.random() < 0.5

            def entry(i, j):
                if i == j:
                    return diagonal[i]
                return F(rng.randint(-9, 9), rng.randint(1, 9)) if (j < i) == lower else 0

            m = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
            assert det(m) == math.prod(diagonal, start=F(1)), m


def test_det_of_a_triangular_matrix_keeps_its_input_checks():
    # strings, floats and booleans still go through cleared, which reads a
    # string and refuses a float or a boolean; the shape check comes first
    assert det((("3/4", 0), (0, 2))) == F(3, 2)
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            det(((bad, 0), (0, 1)))
    with pytest.raises(NotSquare, match="matrix is 2x1"):
        det(((1,), (0,)))


def null_space(m, ncols):
    """linalg._null_space of m's cleared rows, each vector scaled to 1 on its
    free column: the Fraction kernel's normalisation."""
    basis = linalg._null_space(linalg.cleared(m)[0], ncols)
    return tuple(tuple(F(x, v[f]) for x in v) for f, v in basis)


def test_kernel_annihilates():
    rng = random.Random(17)
    for _ in range(30):
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        basis = linalg._null_space(m, 5)
        for f, v in basis:
            assert v[f] > 0 and all(x == 0 for x in mat_vec(m, v))
        rank = len(linalg.rref(m)[0])
        assert len(basis) == 5 - rank


def test_kernel_of_no_constraints():
    assert [v for _, v in linalg._null_space([], 3)] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_matrix_inverse_round_trip():
    rng = random.Random(19)
    for _ in range(20):
        while True:
            rows = as_matrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
            if det(rows) != 0:
                break
        assert linalg.mat_mul(rows, oracle_matrix_inverse(rows)) == identity_matrix(4)


def test_sylvester_invariance_rational_congruence():
    rng = random.Random(23)
    g = B23.gram
    base = inertia(g)
    for _ in range(100):
        while True:
            m = as_matrix([[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)])
            if det(m) != 0:
                break
        assert inertia(linalg.mat_mul(linalg.mat_mul(transpose(m), g), m)) == base


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
            assert got == inertia(rows) == (plus, minus, n - plus - minus)


def test_inertia_of_rational_matrices_matches_sympy():
    rng = random.Random(31)
    x = sympy.Symbol("x")
    for n in (1, 2, 3, 4):
        for _ in range(10):
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = F(rng.randint(-4, 4), rng.randint(1, 5))
            exact = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])
            roots = sympy.Poly(exact.charpoly(x), x).real_roots()
            plus = sum(1 for r in roots if r > 0)
            minus = sum(1 for r in roots if r < 0)
            assert inertia(rows) == (plus, minus, n - plus - minus)


def seeded_symmetric_matrices():
    """Symmetric matrices that reach every branch of the elimination: dense
    ints, zero diagonals, Fractions, singular ones, interleaved orthogonal
    blocks (hyperbolic ones too), and K3."""
    rng = random.Random(37)
    blocks = ([[0, 1], [1, 0]], [[0, 2], [2, 0]], [[2, -1], [-1, 2]], [[1]], [[-3]], [[0]])
    out = []
    for trial in range(600):
        n = rng.randint(1, 7)
        kind = trial % 5
        if kind == 3:
            # V^T D V with V of rank at most r < n
            r = rng.randint(0, n - 1)
            v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            d = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
            out.append([[sum(d[k] * v[k][i] * v[k][j] for k in range(r)) for j in range(n)] for i in range(n)])
            continue
        if kind == 4:
            total = []
            while len(total) < n:
                total.append(rng.choice(blocks))
            size = sum(map(len, total))
            rows = [[0] * size for _ in range(size)]
            at = 0
            for b in total:
                for i, row in enumerate(b):
                    rows[at + i][at:at + len(b)] = row
                at += len(b)
            perm = list(range(size))
            rng.shuffle(perm)
            out.append([[rows[perm[i]][perm[j]] for j in range(size)] for i in range(size)])
            continue
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if kind == 0:
                    value = rng.randint(-4, 4)
                elif kind == 1:
                    value = 0 if i == j else rng.choice((0, 0, rng.randint(-3, 3)))
                else:
                    value = F(rng.randint(-5, 5), rng.randint(1, 4))
                rows[i][j] = rows[j][i] = value
        out.append(rows)
    out.append(standard_lattice("k3").gram)
    return out


def test_integer_congruence_reproduces_the_fraction_elimination():
    for m in seeded_symmetric_matrices():
        diag, t = linalg.diagonalize_symmetric(m)
        assert (diag, t) == fraction_diagonalize_symmetric(m), m
        assert all(type(x) is F for x in diag) and all(type(x) is F for row in t for x in row)
        assert inertia(m) == fraction_inertia(m), m


def test_congruence_certificate_in_integers():
    # t.a.t^T = diag(p_{k-1} p_k) up to the rank, and 0 past it
    for m in seeded_symmetric_matrices():
        if any(isinstance(x, F) for row in m for x in row):
            continue
        pivots, t = linalg._congruence(beside_identity(m))
        n, r = len(m), len(pivots)
        product = [[sum(t[a][i] * m[i][j] * t[b][j] for i in range(n) for j in range(n))
                    for b in range(n)] for a in range(n)]
        weights = [p * q for p, q in zip(pivots, [1] + pivots)] + [0] * (n - r)
        assert product == [[weights[a] if a == b else 0 for b in range(n)] for a in range(n)]
        assert all(pivots)


def beside_identity(m):
    """The rows of a square matrix, each followed by the identity's row."""
    return [[*row, *(int(i == j) for j in range(len(m)))] for i, row in enumerate(m)]


def repair_matrices():
    """Random symmetric integer matrices whose first diagonal entry is 0:
    half of them have a later nonzero diagonal entry (the swap repair), the
    other half a zero diagonal and a nonzero entry off it (the add repair).
    Zero rows and repeated rows make some singular."""
    rng = random.Random(3131)
    out = []
    for trial in range(400):
        n = rng.randint(2, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i != j or trial % 2:
                    rows[i][j] = rows[j][i] = rng.choice((0, 0, -2, -1, 1, 2, 3))
        rows[0][0] = 0
        if trial % 2:
            k = rng.randrange(1, n)
            rows[k][k] = rows[k][k] or 1
        else:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rows[i][j] or rng.choice((-1, 1))
        if trial % 7 == 0:
            z = rng.randrange(n)
            for k in range(n):
                rows[z][k] = rows[k][z] = 0
        out.append(rows)
    return out


def test_ride_along_transform_matches_the_side_matrix():
    swapped = added = 0
    for m in [frac_cleared(m)[0] for m in seeded_symmetric_matrices()] + repair_matrices():
        expected = side_matrix_congruence(m)
        assert linalg._congruence(beside_identity(m)) == expected, m
        pivots, bare = linalg._congruence(m)
        assert (pivots, bare) == (expected[0], [[] for _ in m]), m
        if len(m) > 1 and m[0][0] == 0 and any(m[0]):
            swapped += any(m[i][i] for i in range(len(m)))
            added += not any(m[i][i] for i in range(len(m)))
    assert swapped >= 150 and added >= 150


def test_the_lattice_congruence_is_the_side_matrix_one():
    for m in seeded_symmetric_matrices():
        if all(type(x) is int for row in m for x in row) and sympy.Matrix(m).det():
            l = quad_lattice(m)
            pivots, t = side_matrix_congruence(m)
            assert l.congruence == (tuple(pivots), tuple(map(tuple, t))), m


def test_inertia_passes_bare_rows(monkeypatch):
    widths = []
    original = linalg._congruence
    monkeypatch.setattr(linalg, "_congruence",
                        lambda rows: widths.extend(map(len, rows)) or original(rows))
    m = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    assert inertia(m) == (1, 2, 0)
    assert widths == [3, 3, 3]


def sympy_inertia(m):
    """(n_plus, n_minus, n_zero) from sympy: the rank, and the sign changes
    of the characteristic polynomial's coefficients (Descartes' count is
    exact, as every root is real; a root at 0 adds no change)."""
    p = sympy.Matrix(m).charpoly().all_coeffs()

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    plus = changes(p)
    minus = changes([c * (-1) ** k for k, c in enumerate(reversed(p))])
    return plus, minus, len(m) - plus - minus


def inertia_matrices():
    """The matrix kinds of a Point cell's plane and beyond: permuted
    block-diagonal ones, degenerate ones (zero rows, zero blocks and
    singular blocks) and dense ones (a single component)."""
    rng = random.Random(1031)
    out = []
    for trial in range(240):
        kind = trial % 3
        if kind == 2:
            n = rng.randint(1, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice((-1, 1)) * rng.randint(1, 2**rng.randint(1, 40))
            out.append(rows)
            continue
        blocks = []
        for _ in range(rng.randint(1, 5)):
            b = rng.randint(1, 3)
            v = [[rng.randint(-3, 3) for _ in range(b)] for _ in range(rng.randint(0 if kind else 1, b))]
            d = [rng.choice((-2, -1, 1, 3)) for _ in v]
            blocks.append([[sum(d[k] * v[k][i] * v[k][j] for k in range(len(v)))
                            for j in range(b)] for i in range(b)])
        if kind == 1:
            blocks.append([[0] * 2 for _ in range(2)])
        n = sum(map(len, blocks))
        rows = [[0] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                rows[at + i][at:at + len(b)] = row
            at += len(b)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    return out


def test_inertia_matches_sympy_on_block_degenerate_and_dense_matrices():
    kinds = inertia_matrices()
    for m in kinds:
        assert inertia(m) == sympy_inertia(m), m
    assert sum(1 for m in kinds[1::3] if any(not any(row) for row in m)) >= 40


def test_subspace_contains():
    a = span([(1, 0, 1), (0, 1, 1)])
    assert a.contains((1, 1, 2))
    assert not a.contains((0, 0, 1))


def seeded_rational_matrices():
    """Row lists that reach every branch of the integer row elimination:
    empty, zero and dependent rows, mixed denominators, negative leading
    entries, widths up to 22, and entries of about 700 bits like the cut
    lines of the Point cells."""
    rng = random.Random(41)
    out = [[], [[0, 0, 0]], [[0] * 22] * 3, [[F(-3, 4), 0], [F(3, 2), 0]], [[-5]]]
    for trial in range(400):
        width = rng.choice((1, 2, 3, 4, 5, 7, 11, 22))
        rows = rng.randint(0, min(width + 2, 8))
        kind = trial % 4
        if kind == 0:
            m = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(width)] for _ in range(rows)]
        elif kind == 1:
            m = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(width)] for _ in range(rows)]
        elif kind == 2:  # at most `rank` independent rows, recombined and scaled
            rank = rng.randint(1, max(1, min(width, 4)))
            base = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rank)]
            m = [[sum(rng.randint(-2, 2) * F(b[i], rng.randint(1, 3)) for b in base)
                  for i in range(width)] for _ in range(rows)]
        else:
            m = [[rng.choice((0, rng.randint(-2**700, 2**700))) for _ in range(width)] for _ in range(rows)]
        for row in m:  # zero rows, negative leading entries
            if rng.random() < 0.15:
                row[:] = [0] * width
            elif rng.random() < 0.5:
                row[:] = [-x for x in row]
        out.append(m)
    return out


def test_to_dict_reads_the_strings_off_the_integer_rows():
    # to_dict reduces x over the pivot entry by one gcd; the bytes are those
    # of str() over the Fraction RREF basis
    for m in seeded_rational_matrices():
        s = span(m, ambient=len(m[0]) if m else 3)
        assert s.to_dict() == {"ambient": s.ambient,
                               "basis": [[str(x) for x in row] for row in s.basis]}


def sympy_rref(rows):
    ref, pivots = sympy.Matrix(rows).rref()
    nonzero = [r for r in ref.tolist() if any(x != 0 for x in r)]
    return tuple(tuple(F(int(x.p), int(x.q)) for x in r) for r in nonzero), tuple(pivots)


def test_row_elimination_matches_the_fraction_oracle_and_sympy():
    for i, m in enumerate(seeded_rational_matrices()):
        width = len(m[0]) if m else 3
        expected = fraction_rref(m)
        assert linalg.rref(m) == expected, m
        assert span(m, ambient=width).basis == expected[0], m
        assert null_space(m, width) == fraction_kernel(m, width), m
        if m and i % 4 == 0:
            assert expected == sympy_rref(m), m
            assert null_space(m, width) == tuple(tuple(F(int(x.p), int(x.q)) for x in v)
                                                 for v in sympy.Matrix(m).nullspace()), m


def test_meet_and_complement_match_the_fraction_oracle():
    rng = random.Random(43)
    lattices = [standard_lattice("bpq", 1, 1), B23, standard_lattice("bpq", 3, 4),
                standard_lattice("bpq", 3, 19), standard_lattice("k3")]
    spaces = {}
    for m in seeded_rational_matrices():
        if m:
            spaces.setdefault(len(m[0]), []).append(span(m))
    for l in lattices:
        for a in spaces.get(l.rank, [])[:12]:
            assert perp(a, l).basis == fraction_perp(a.basis, l.gram)
    for width, group in spaces.items():
        for _ in range(15):
            a, b = rng.choice(group), rng.choice(group)
            assert intersect(a, b).basis == fraction_intersect(a.basis, b.basis)
            assert subspace_sum(a, b).basis == fraction_rref(a.basis + b.basis)[0]


def test_subspace_rows_are_primitive_with_positive_pivots():
    # each row is its RREF row times the lcm of its denominators
    for m in seeded_rational_matrices():
        s = span(m, ambient=len(m[0]) if m else 3)
        pivots = [next(c for c, x in enumerate(row) if x) for row in s.rows]
        assert pivots == sorted(set(pivots))
        for row, c in zip(s.rows, pivots):
            assert all(type(x) is int for x in row)
            assert row[c] > 0 and math.gcd(*row) == 1
            assert all(other[c] == 0 for other in s.rows if other is not row)
        assert s.rows == tuple(tuple(x * math.lcm(*(y.denominator for y in b)) for x in b)
                               for b in s.basis)


def test_cleared_writes_rows_over_the_lcm_of_all_denominators():
    assert linalg.cleared([[1, 2], [3, 4]]) == ([[1, 2], [3, 4]], 1)
    assert linalg.cleared([[F(1, 2), "3/4"], [2, F(-1, 6)]]) == ([[6, 9], [24, -2]], 12)
    assert linalg.cleared([]) == ([], 1)
    for m in seeded_rational_matrices():
        rows, s = linalg.cleared(m)
        assert all(type(x) is int for row in rows for x in row)
        assert s == math.lcm(*(frac(x).denominator for row in m for x in row))
        assert [[F(x, s) for x in row] for row in rows] == [[frac(x) for x in row] for row in m]
    with pytest.raises(ValueError):
        linalg.cleared([[1, 2], [3]])


# Strings cleared reads by one match (reduced, signed, zero) next to strings
# it leaves to frac (spaces, underscores, decimals, exponents, a non-ASCII
# digit, zero denominators, an exponent past the cap), and rows that mix
# ints, bools, floats, Fractions and strings.
PARSE_CORPUS = [
    [["6/8"]], [["-0"]], [["+3/9"]], [["0/5", "-12/4"]], [["007/014"]],
    [[" 3 / 4 "]], [["1_000/3"]], [["1.25"]], [["5e-1"]], [["\u0663"]], [[" 3/4 "]],
    [["1/0"]], [["0/0"]], [["1e100000"]], [["3/-4"]], [["/4"]], [[""]],
    [[1, True]], [["1", 1.0]], [[F(1, 2), "1/2"]], [["1/2", 1.5, "1/0"]], [["1/0", 1.5]],
    [["6/8", "6/8", F(3, 4)], ["3/4", 2, "-2/8"]],
]


@pytest.mark.parametrize("rows", PARSE_CORPUS, ids=repr)
def test_cleared_matches_the_frac_oracle(rows):
    # the one-match string path gives what frac gives, or the same error
    try:
        expected = frac_cleared(rows)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            linalg.cleared(rows)
    else:
        assert linalg.cleared(rows) == expected


def test_cleared_matches_the_frac_oracle_on_seeded_strings():
    rng = random.Random(1818)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.choice((f"{rng.randint(-99, 99)}/{rng.randint(1, 60)}",
                             str(rng.randint(-9, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)),
                             rng.randint(-5, 5)))
                 for _ in range(n)] for _ in range(rng.randint(1, 3))]
        assert linalg.cleared(rows) == frac_cleared(rows), rows


@pytest.mark.parametrize("bad", [1.5, True, False])
def test_exact_entry_points_reject_floats_and_bools(bad):
    # every entry passes through frac: a float would poison exact results
    # and a bool would pass for 0 or 1
    for fn in (det, inertia, linalg.diagonalize_symmetric, linalg.rref, span):
        for m in ([[bad]], [[1, 0], [0, bad]], [[F(1, 2), 0], [bad, 1]]):
            with pytest.raises(TypeError):
                fn(m)


def test_gram_of_equals_the_dense_product():
    # V.G.V^T over the Gram terms against the dense product, on rows with
    # zeros and 700-bit entries, on zero rows and on no rows
    rng = random.Random(97)
    for l in (standard_lattice("k3"), standard_lattice("e8_neg"),
              standard_lattice("bpq", 3, 4), standard_lattice("bpq", 3, 19)):
        n = l.rank
        assert linalg.gram_of([], l) == []
        assert linalg.gram_of([[0] * n] * 3, l) == [[0] * 3] * 3
        for bits in (3, 700):
            for count in (1, 2, 5):
                rows = [[rng.choice((0, rng.randint(-2**bits, 2**bits))) for _ in range(n)]
                        for _ in range(count)]
                vg = [[sum(map(mul, row, col)) for col in zip(*l.gram)] for row in rows]
                dense = [[sum(map(mul, a, b)) for b in rows] for a in vg]
                assert linalg.gram_of(rows, l) == dense
                assert linalg.gram_of(map(tuple, rows), l) == dense


def test_contains_refuses_a_vector_of_the_wrong_length():
    with pytest.raises(AmbientMismatch, match="vector of length 2 in ambient 3"):
        span([(1, 0, 1)]).contains((1, 0))


def test_an_empty_span_needs_its_ambient():
    with pytest.raises(ValueError, match="ambient dimension required for an empty span"):
        span([])
    assert span([], ambient=3).dim == 0


def test_perp_and_restricted_definiteness_refuse_an_ambient_mismatch():
    a = span([(1, 0, 0)])
    for call in (perp, restricted_definiteness):
        with pytest.raises(AmbientMismatch, match="subspace ambient 3, lattice rank 2"):
            call(a, B11)
