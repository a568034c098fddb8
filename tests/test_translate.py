"""A translate carries its certificate through a certified isometry.

For a flat the oracle is recertified_translate: the same primitive image
rows, with the whole image certified again on its integer Gram matrix.
translate must give the same int_blocks and int_rest on every flat below,
including blocks whose image rows' contents have opposite signs, where the
sign of the carried B(x,y) is the only thing that tells the two triples
apart. For a hyperplane and a point, the image's Q(normal) < 0 and its
plane's positive definiteness are computed afresh, apart from the program.
"""

import random

import pytest

from geocycle import grassmann, linalg, verify
from geocycle.arrangement import (
    DEFAULT_BOOST,
    arrangement_spec,
    build_family,
    search_parameters,
    standard_flat,
)
from geocycle.errors import FormNotPreserved, NotOrthogonal, NotSquare, WrongInertia
from geocycle.grassmann import _certified_flat, flat_new, gr_point, hyperplane_new, translate
from geocycle.isometries import Isometry, compose, reflection
from geocycle.lattices import primitive_content, standard_lattice
from geocycle.linalg import span, terms_times
from oracles import (
    RawMatrix,
    fraction_inertia,
    oracle_apply,
    recertified_translate,
    rotation_isometry,
)


def assert_matches_oracle(g, flat):
    image = translate(g, flat)
    expected = recertified_translate(g, flat)
    assert (image.int_blocks, image.int_rest) == (expected.int_blocks, expected.int_rest)
    return image


def opposite_content_blocks(g, flat):
    """How many blocks with B(x,y) != 0 have image rows whose signed
    contents cx, cy satisfy cx * cy < 0."""
    count = 0
    for x, y, _, bxy, _ in flat.int_blocks:
        cx = primitive_content(terms_times(g.num_terms, x))[1]
        cy = primitive_content(terms_times(g.num_terms, y))[1]
        count += bool(bxy) and cx * cy < 0
    return count


@pytest.mark.parametrize("p,q", [(3, 4), (8, 8), (3, 19)])
def test_every_flat_of_an_auto_params_family_matches_the_oracle(p, q):
    n = 64
    m, t = search_parameters(n, DEFAULT_BOOST)
    spec = arrangement_spec(p, q, n, DEFAULT_BOOST, m, t)
    flats, _ = build_family(spec)
    r = rotation_isometry(spec.rotation, p, q)
    for before, after in zip(flats, flats[1:]):
        expected = recertified_translate(r, before)
        assert (after.int_blocks, after.int_rest) == (expected.int_blocks, expected.int_rest)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (3, 19)])
def test_seeded_reflection_products_applied_twice_match_the_oracle(p, q):
    l = standard_lattice("bpq", p, q)
    base = standard_flat(p, q)
    rng = random.Random(2221 + 100 * p + q)
    opposite = 0
    for reflections in range(5):
        for _ in range(3):
            g = verify.random_isometry(l, rng, reflections=reflections)
            once = assert_matches_oracle(g, base)
            assert_matches_oracle(g, once)
            # the RREF rows of the image's subspaces pair their blocks'
            # rows nontrivially, B(x,y) != 0, unlike the coordinate rows
            sheared = flat_new([b.basis for b in once.blocks], once.rest.basis, l)
            h = verify.random_isometry(l, rng, reflections=rng.randint(1, 4))
            opposite += opposite_content_blocks(h, sheared)
            assert_matches_oracle(h, assert_matches_oracle(h, sheared))
    assert opposite >= 3


def test_opposite_contents_flip_the_sign_of_the_block_pairing():
    # x = e + f, y = f over B(1,1): (Q(x), B(x,y), Q(y)) = (0, -1, -1). The
    # reflection along e sends x to -e + f, content -1 on the line of e - f,
    # and y to itself, content +1: B(e - f, f) = +1
    l = standard_lattice("bpq", 1, 1)
    flat = _certified_flat([[(1, 1), (0, 1)], []], l)
    assert flat.int_blocks == (((1, 1), (0, 1), 0, -1, -1),)
    r = reflection((1, 0), l)
    assert opposite_content_blocks(r, flat) == 1
    image = assert_matches_oracle(r, flat)
    assert image.int_blocks == (((1, -1), (0, 1), 0, 1, -1),)
    assert image == flat  # the same splitting of the plane


def _permutation(l, i, j):
    n = l.rank
    swap = {i: j, j: i}
    return tuple(tuple(int(swap.get(c, c) == r) for c in range(n)) for r in range(n))


def _shear(l, into, source):
    # e_source -> e_source + e_into
    n = l.rank
    return tuple(tuple(int(r == c or (r, c) == (into, source)) for c in range(n)) for r in range(n))


@pytest.mark.parametrize(
    "make,recertified",
    [
        (lambda l: _permutation(l, 0, 3), WrongInertia),  # e1 <-> f2: <f2, f1> is negative
        (lambda l: _shear(l, 1, 0), NotOrthogonal),  # e1 -> e1 + e2 pairs with e2
    ],
    ids=["swap_e1_f2", "shear_e1_into_e2"],
)
def test_an_uncertified_matrix_on_a_flat_raises_form_not_preserved(make, recertified):
    # re-certifying the image caught these by its inertia or orthogonality
    # check; the matrix itself is now refused when its Isometry is made, so
    # no translate meets it
    l = standard_lattice("bpq", 2, 3)
    flat = standard_flat(2, 3)
    num = make(l)
    with pytest.raises(recertified):
        recertified_translate(RawMatrix(num, 1, l), flat)
    with pytest.raises(FormNotPreserved, match="does not preserve the bilinear form"):
        Isometry(num, 1, l)


def test_a_hand_built_isometry_of_the_wrong_shape_is_not_certified():
    l = standard_lattice("bpq", 2, 3)
    for num in (((1, 0), (0, 1)), ((1, 0, 0, 0, 0),) * 4 + ((0, 0, 0, 0),)):
        with pytest.raises(NotSquare, match="expected a 5x5 matrix"):
            Isometry(num, 1, l)


def test_the_form_is_checked_once_per_isometry(monkeypatch):
    # every Isometry is certified when it is made: a product of reflections
    # with no check, and a rotation read by isometry_from_matrix or a
    # hand-built Isometry(...) by its walk. Neither forms a Gram matrix, and
    # translating a flat by any of them forms none either
    calls = []

    def counted(rows, lattice):
        calls.append(lattice)
        return real(rows, lattice)

    real = linalg.gram_of
    monkeypatch.setattr(linalg, "gram_of", counted)
    monkeypatch.setattr(grassmann, "gram_of", counted)
    flat = standard_flat(3, 4)
    calls.clear()
    l = standard_lattice("bpq", 3, 4)
    spec = arrangement_spec(3, 4, 3, DEFAULT_BOOST, 2, "1/10")
    r = rotation_isometry(spec.rotation, 3, 4)
    g = verify.random_isometry(l, random.Random(22), reflections=3)
    hand_built = Isometry(g.num, g.den, l)
    assert "reflection_rays" in vars(r) and "reflection_rays" in vars(hand_built)
    image = translate(g, translate(g, flat))
    assert translate(hand_built, translate(hand_built, flat)) == image
    translate(r, image)
    assert calls == []


def dense_pairing(l, x, y):
    """x.G.y summed over every entry of the Gram matrix."""
    return sum(g * a * b for row, a in zip(l.gram, x) for g, b in zip(row, y))


def seeded_certified_isometries():
    """Reflection products on B(2,3) and B(3,4), certified by construction,
    and the first powers of a family's rotation on B(3,4)."""
    rng = random.Random(3401)
    out = [
        verify.random_isometry(standard_lattice("bpq", p, q), rng)
        for p, q in [(2, 3), (3, 4)]
        for _ in range(20)
    ]
    spec = arrangement_spec(3, 4, 3, DEFAULT_BOOST, 2, "1/10")
    r = power = rotation_isometry(spec.rotation, 3, 4)
    for _ in range(12):
        out.append(power)
        power = compose(r, power)
    return out


def test_translated_normals_stay_negative_and_planes_positive():
    # translate checks neither on an image: the certificate of g carries
    # them. Here each is computed afresh, Q densely over the Gram matrix and
    # the plane's inertia by the Fraction diagonalisation
    rng = random.Random(3402)
    isometries = seeded_certified_isometries()
    assert len(isometries) >= 50
    for g in isometries:
        l = g.lattice
        p = sum(row[i] > 0 for i, row in enumerate(l.gram))
        normals = []
        while len(normals) < 3:
            v = [rng.randint(-3, 3) for _ in range(l.rank)]
            if dense_pairing(l, v, v) < 0:
                normals.append(v)
        for v in normals:
            normal = translate(g, hyperplane_new(v, l)).normal
            assert dense_pairing(l, normal, normal) < 0
        e = [[int(j == i) for j in range(l.rank)] for i in range(l.rank)]
        planes = [e[:p], [[2 * a + b for a, b in zip(e[i], e[p + i])] for i in range(p)]]
        for rows in planes:
            image = translate(g, gr_point(span(rows), l)).plane
            assert image == span([oracle_apply(g, row) for row in rows])
            gram = [[dense_pairing(l, x, y) for y in image.rows] for x in image.rows]
            assert fraction_inertia(gram) == (p, 0, 0)
