import math
import random
import time
from fractions import Fraction as F

import pytest

from geocycle.arrangement import (
    BoostParams,
    arrangement_spec,
    base_hyperplane_normal,
    boost_power,
    build_family,
    standard_flat,
)
from geocycle.errors import (
    AmbientMismatch,
    FormNotPreserved,
    LatticeMismatch,
    NonNegativeVector,
    NotOrthogonal,
    NotSpanning,
    WrongInertia,
)
from geocycle.grassmann import (
    flat_new,
    general_position,
    gr_point,
    hyperplane_new,
    intersect_flat_hyperplane,
    stabilizer_sign_patterns,
    translate,
)
from geocycle.isometries import Isometry, compose, product_of_reflections, reflection
from geocycle.lattices import eval_form, quad_lattice, standard_lattice
from geocycle.linalg import intersect, perp, restricted_definiteness, span
from geocycle.verify import _random_strong_position_pair
from oracles import RawMatrix, filtered_stabilizer_sign_patterns, oracle_apply

B11 = standard_lattice("bpq", 1, 1)
B12 = standard_lattice("bpq", 1, 2)
B23 = standard_lattice("bpq", 2, 3)
BOOST = BoostParams(F(5, 4), F(3, 4))


def unit(i, n):
    return [1 if j == i else 0 for j in range(n)]


def arrangement_pair(p, q, m):
    spec = arrangement_spec(p, q, 0, BOOST, m, F(1, 10))
    flats, hypers = build_family(spec)
    return flats[0], hypers[0]


def complement(h):
    """The orthogonal complement of the hyperplane's normal, computed directly."""
    return perp(span([h.normal], ambient=h.lattice.rank), h.lattice)


def random_isometry(l, rng, k=3):
    g = product_of_reflections([], l)
    for _ in range(k):
        while True:
            v = tuple(rng.randint(-4, 4) for _ in range(l.rank))
            if any(v) and eval_form(l, v, v) != 0:
                break
        g = compose(g, reflection(v, l))
    return g


# ------------------------------------------------------------- construction


def test_standard_flat_in_b23():
    f = standard_flat(2, 3)
    assert f.block_count == 2
    assert f.rest.dim == 1
    assert f.blocks[0] == span([unit(0, 5), unit(2, 5)])


def test_flat_rejects_positive_block():
    b22 = standard_lattice("bpq", 2, 2)
    with pytest.raises(WrongInertia):
        flat_new([[unit(0, 4), unit(1, 4)], [unit(2, 4), unit(3, 4)]], [], b22)


def test_flat_rejects_overlapping_blocks():
    with pytest.raises((NotOrthogonal, NotSpanning)):
        flat_new(
            [[unit(0, 5), unit(2, 5)], [unit(0, 5), unit(3, 5)]],
            [unit(4, 5)],
            B23,
        )


def test_flat_rejects_non_spanning():
    b22 = standard_lattice("bpq", 2, 2)
    with pytest.raises(NotSpanning):
        flat_new([[unit(0, 4), unit(2, 4)]], [], b22)


def test_hyperplane_from_f1():
    h = hyperplane_new((0, 1), B11)
    assert h.normal == (0, 1)
    assert complement(h) == span([(1, 0)])


def test_hyperplane_normal_zero_power_boost():
    # boosted normal at power 0 degenerates to f_1 + f_2, self-pairing -2
    spec = arrangement_spec(2, 3, 0, BOOST, 0, F(1, 10))
    lam = base_hyperplane_normal(spec)
    assert lam == (F(0), F(0), F(1), F(1), F(0))
    assert eval_form(B23, lam, lam) == -2


def test_hyperplane_rejects_positive_vector():
    with pytest.raises(NonNegativeVector):
        hyperplane_new((1, 0), B11)
    with pytest.raises(NonNegativeVector):
        hyperplane_new((1, 1), B11)  # isotropic


def test_hyperplane_rejects_zero_and_wrong_length_normals():
    with pytest.raises(NonNegativeVector):
        hyperplane_new((0, 0), B11)
    with pytest.raises(NonNegativeVector):
        hyperplane_new((F(0), F(0), F(0), F(0), F(0)), B23)
    with pytest.raises(AmbientMismatch):
        hyperplane_new((0, 1, 0), B11)
    with pytest.raises(AmbientMismatch):
        hyperplane_new((0, 0, 1, 0), B23)


def test_hyperplane_equality_is_by_line():
    v = (2, 0, 4, 2, 2)  # Q = 4 - 16 - 4 - 4 < 0
    h = hyperplane_new(v, B23)
    assert h.normal == (1, 0, 2, 1, 1)
    for c in (-1, F(3, 2), F(-1, 6)):
        same = tuple(c * x for x in v)
        other = hyperplane_new(same, B23)
        assert other == h
        assert hash(other) == hash(h)
        assert other.normal == h.normal
    for different in ((1, 0, 2, 1, 2), (1, 0, 2, -1, 1), (-1, 0, 2, 1, 1)):
        assert hyperplane_new(different, B23) != h
    b14 = standard_lattice("bpq", 1, 4)
    assert hyperplane_new((1, 0, 2, 1, 1), b14) != h  # same vector, other lattice


def test_hyperplane_normal_is_primitive_with_positive_lead():
    rng = random.Random(83)
    for _ in range(60):
        v = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5))
        if eval_form(B23, v, v) >= 0:
            continue
        x = hyperplane_new(v, B23).normal
        assert all(isinstance(c, int) for c in x)
        assert math.gcd(*x) == 1
        assert next(c for c in x if c) > 0
        assert span([x]) == span([v])
        assert hyperplane_new(x, B23).normal == x


# --------------------------------------------------------- general position


def test_general_position_fails_when_normal_lies_in_rest():
    f = standard_flat(2, 3)
    h = hyperplane_new(unit(4, 5), B23)  # the rest direction itself
    assert not general_position(f, h, "weak")


def test_general_position_b12_example():
    # complement of f_1 meets the block in the positive line <e_1>, but the
    # normal pairs to zero with the rest, so the rest clause fails
    f = standard_flat(1, 2)
    h = hyperplane_new((0, 1, 0), B12)
    line = intersect(complement(h), f.blocks[0])
    assert line == span([(1, 0, 0)])
    assert restricted_definiteness(line, B12) == (1, 0, 0)
    assert not general_position(f, h, "weak")


def test_general_position_boosted_normal_fails_rest_clause():
    # the boosted family normal has no rest component, so weak fails as the
    # clause is written, even though every block line is a positive line
    f, h = arrangement_pair(2, 3, 1)
    assert not general_position(f, h, "weak")
    lines = [intersect(complement(h), b) for b in f.blocks]
    assert all(line.dim == 1 for line in lines)
    assert all(restricted_definiteness(line, B23) == (1, 0, 0) for line in lines)


def test_general_position_strong_with_rest_component():
    bp = boost_power(BOOST, 1)
    lam = (bp.b, F(0), bp.a, F(1), F(1))  # boosted normal plus a rest part
    f = standard_flat(2, 3)
    h = hyperplane_new(lam, B23)
    assert general_position(f, h, "weak")
    assert general_position(f, h, "strong")


def test_general_position_strong_vs_weak():
    # first-block component dominated by the positive coordinate: the cut
    # line is negative, so weak holds but strong fails
    lam = (F(2), F(0), F(1), F(1), F(3))
    assert eval_form(B23, lam, lam) < 0
    f = standard_flat(2, 3)
    h = hyperplane_new(lam, B23)
    assert general_position(f, h, "weak")
    assert not general_position(f, h, "strong")


def test_general_position_rest_clause_skip_flag():
    b22 = standard_lattice("bpq", 2, 2)
    f = standard_flat(2, 2)
    bp = boost_power(BOOST, 3)
    h = hyperplane_new((bp.b, F(0), bp.a, F(1)), b22)
    # dim-0 rest: the clause fails as stated, the flag opts out
    assert not general_position(f, h, "weak")
    assert general_position(f, h, "weak", skip_rest_clause_when_empty=True)
    assert general_position(f, h, "strong", skip_rest_clause_when_empty=True)


def test_general_position_mode_validation():
    f, h = arrangement_pair(2, 3, 1)
    with pytest.raises(ValueError):
        general_position(f, h, "medium")


# ------------------------------------------------------------ intersections


def test_intersection_point_is_boosted_line_plus_e2():
    f, h = arrangement_pair(2, 3, 3)
    verdict = intersect_flat_hyperplane(f, h)
    assert verdict.tag == "Point"
    bp = boost_power(BOOST, 3)
    expected = span([(bp.a, 0, bp.b, 0, 0), unit(1, 5)])
    assert verdict.point.plane == expected


def test_intersection_point_p1q1():
    f = flat_new([[unit(0, 2), unit(1, 2)]], [], B11)
    h = hyperplane_new((0, 1), B11)
    verdict = intersect_flat_hyperplane(f, h)
    assert verdict.tag == "Point"
    assert verdict.point.plane == span([(1, 0)])


def test_intersection_empty_when_line_not_positive():
    lam = (F(2), F(0), F(1), F(1), F(3))  # negative cut line in the first block
    f = standard_flat(2, 3)
    h = hyperplane_new(lam, B23)
    assert intersect_flat_hyperplane(f, h).tag == "Empty"


def test_intersection_degenerate_when_block_inside_complement():
    f = standard_flat(2, 3)
    h = hyperplane_new(unit(4, 5), B23)  # whole first block lies in f_3-perp
    verdict = intersect_flat_hyperplane(f, h)
    assert verdict.tag == "Degenerate"
    assert verdict.reason == "dim_not_one(0)"


def test_intersection_rest_clause_flag():
    # the rest clause is general_position's, not part of the verdict: the
    # boosted normal has no rest component, so the pair fails weak general
    # position while the criterion still finds the point
    f, h = arrangement_pair(2, 3, 3)
    assert intersect_flat_hyperplane(f, h).tag == "Point"
    assert not general_position(f, h, "weak")


def test_point_verdict_certification():
    f, h = arrangement_pair(3, 4, 2)
    verdict = intersect_flat_hyperplane(f, h)
    assert verdict.tag == "Point"
    plane = verdict.point.plane
    assert restricted_definiteness(plane, f.lattice) == (plane.dim, 0, 0)
    for row in plane.basis:
        assert complement(h).contains(row)
    for block in f.blocks:
        assert intersect(plane, block).dim == 1


def test_verdict_equivariance():
    rng = random.Random(71)
    f, h = arrangement_pair(2, 3, 2)
    base = intersect_flat_hyperplane(f, h).tag
    for _ in range(10):
        g = random_isometry(B23, rng)
        assert intersect_flat_hyperplane(translate(g, f), translate(g, h)).tag == base


def test_empty_verdict_confirmed_by_brute_force():
    # whenever every block line exists and one is non-positive, the only
    # candidate plane (the span of the lines) fails positivity, confirming
    # the Empty verdict independently
    cases = [
        (F(2), F(0), F(1), F(1), F(3)),
        (F(5), F(0), F(4), F(1), F(4)),
        (F(2), F(0), F(1), F(2), F(1)),
    ]
    f = standard_flat(2, 3)
    for lam in cases:
        assert eval_form(B23, lam, lam) < 0
        h = hyperplane_new(lam, B23)
        lines = [intersect(complement(h), b) for b in f.blocks]
        assert all(line.dim == 1 for line in lines)
        non_positive = [
            line for line in lines if restricted_definiteness(line, B23) != (1, 0, 0)
        ]
        if not non_positive:
            continue
        candidate = span(
            [row for line in lines for row in line.basis], ambient=B23.rank
        )
        assert restricted_definiteness(candidate, B23) != (candidate.dim, 0, 0)
        assert intersect_flat_hyperplane(f, h).tag == "Empty"


# --------------------------------------------------------------- stabilizer


def test_stabilizer_strong_pair_is_all_ones_only():
    bp = boost_power(BOOST, 1)
    f = standard_flat(2, 3)
    h = hyperplane_new((bp.b, F(0), bp.a, F(1), F(1)), B23)
    assert general_position(f, h, "strong")
    assert stabilizer_sign_patterns(f, h) == [(1, 1)]


def test_stabilizer_zero_block_component_admits_flip():
    f = standard_flat(2, 3)
    h = hyperplane_new((0, 0, 0, 1, 1), B23)  # no first-block component
    patterns = stabilizer_sign_patterns(f, h)
    assert (1, 1) in patterns
    assert (-1, 1) in patterns


def test_stabilizer_p1_negative_basis_vector():
    f = flat_new([[unit(0, 2), unit(1, 2)]], [], B11)
    h = hyperplane_new((0, 1), B11)
    assert stabilizer_sign_patterns(f, h) == [(1,), (-1,)]


def test_stabilizer_always_contains_all_ones():
    rng = random.Random(73)
    f = standard_flat(2, 3)
    for _ in range(10):
        lam = tuple(rng.randint(-3, 3) for _ in range(5))
        if eval_form(B23, lam, lam) >= 0:
            continue
        assert (1, 1) in stabilizer_sign_patterns(f, hyperplane_new(lam, B23))


def random_normal(p, q, rng):
    """A negative normal over B(p, q): each block left out with chance 2/5,
    else its negative coordinate dominant, and the rest left out half the
    time, so normals orthogonal to some blocks or to the rest are common."""
    while True:
        coords = [0] * (p + q)
        for i in range(p):
            if rng.random() < 0.4:
                continue
            coords[i] = rng.randint(-3, 3)
            coords[p + i] = rng.choice((-1, 1)) * rng.randint(abs(coords[i]) + 1, 5)
        if rng.random() < 0.5:
            coords[2 * p:] = [rng.randint(-2, 2) for _ in range(q - p)]
        if any(coords):
            return coords


def test_stabilizer_matches_the_filter_over_all_patterns():
    rng = random.Random(2801)
    kinds = set()
    for p in range(1, 9):
        for q in (p, p + 1, p + 3):
            l = standard_lattice("bpq", p, q)
            for _ in range(6):
                g = random_isometry(l, rng, rng.randint(0, 2))
                f = translate(g, standard_flat(p, q))
                h = translate(g, hyperplane_new(random_normal(p, q, rng), l))
                patterns = stabilizer_sign_patterns(f, h)
                assert patterns == filtered_stabilizer_sign_patterns(f, h), (p, q)
                kinds.add(len(patterns) > 1)
    assert kinds == {True, False}


def test_stabilizer_of_a_strong_pair_at_the_rank_cap_is_quick():
    # 31 blocks and a nonzero rest at rank 64, the largest rank supported:
    # a filter over all 2^31 patterns would take hours
    f, h = _random_strong_position_pair(standard_flat(31, 33), random.Random(2802))
    assert general_position(f, h, "strong")
    start = time.perf_counter()
    assert stabilizer_sign_patterns(f, h) == [(1,) * 31]
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- translate


def test_translate_by_identity():
    f, h = arrangement_pair(2, 3, 1)
    assert translate(product_of_reflections([], B23), f) == f
    assert translate(product_of_reflections([], B23), h) == h


def test_translate_moves_blocks():
    rng = random.Random(79)
    f = standard_flat(2, 3)
    g = random_isometry(B23, rng)
    image = translate(g, f)
    assert image.blocks[0] == span([oracle_apply(g, row) for row in f.blocks[0].basis])


def test_translate_rechecks_negative_normal():
    # the matrix itself is certified, when its Isometry is made, so translate
    # never meets these. The swap sends the negative line of (0, 1) to a
    # positive one; diag(2, 1) sends the negative line of (1, 3) to the
    # negative line of (2, 3) and the positive line of (1, 0) to itself, so
    # only the certificate of the matrix tells that neither image may be taken
    swap = RawMatrix(((0, 1), (1, 0)), 1, B11)
    stretch = RawMatrix(((2, 0), (0, 1)), 1, B11)
    image = oracle_apply(swap, (0, 1))
    assert eval_form(B11, (0, 1), (0, 1)) < 0 < eval_form(B11, image, image)
    assert (oracle_apply(stretch, (1, 3)), oracle_apply(stretch, (1, 0))) == ((2, 3), (2, 0))
    for g in (swap, stretch):
        with pytest.raises(FormNotPreserved, match="does not preserve the bilinear form"):
            Isometry(*g)


def test_translate_hyperplane_keeps_line():
    rng = random.Random(89)
    h = hyperplane_new((1, 0, 2, 1, 1), B23)
    for _ in range(5):
        g = random_isometry(B23, rng)
        image = translate(g, h)
        assert span([image.normal]) == span([oracle_apply(g, h.normal)])
        assert next(c for c in image.normal if c) > 0
        assert translate(g, hyperplane_new([-3 * c for c in h.normal], B23)) == image


def test_translate_lattice_mismatch():
    f = standard_flat(2, 3)
    with pytest.raises(LatticeMismatch):
        translate(product_of_reflections([], B11), f)


def test_an_equal_lattice_object_is_the_same_lattice():
    # the lattice check tries identity first, then equality: a flat and a
    # hyperplane over equal but distinct lattice objects still meet
    copy = quad_lattice(B23.gram, name=B23.name)
    assert copy == B23 and copy is not B23
    flat, hyper = arrangement_pair(2, 3, 3)
    for h in (hyper, hyperplane_new((1, 0, 2, 0, 0), B23)):
        over_copy = hyperplane_new(h.normal, copy)
        assert intersect_flat_hyperplane(flat, over_copy) == intersect_flat_hyperplane(flat, h)
        assert general_position(flat, over_copy) == general_position(flat, h)
    with pytest.raises(LatticeMismatch):
        intersect_flat_hyperplane(flat, hyperplane_new((0, 0, 1, 0, 0), quad_lattice(B23.gram)))


def test_gr_point_requires_positive_definite():
    with pytest.raises(WrongInertia):
        gr_point(span([(0, 0, 1, 0, 0)]), B23)


def test_a_flat_compares_unequal_to_what_is_not_a_flat():
    flat = standard_flat(1, 1)
    assert flat.__eq__(3) is NotImplemented
    assert flat != 3


def test_translate_refuses_what_is_not_a_flat_hyperplane_or_point():
    with pytest.raises(TypeError, match="cannot translate object"):
        translate(product_of_reflections([], B11), object())
