"""The verdicts' sign rule against the product form of Q(w).

A split block's cut line is read as sign B(v,u) * sign B(v,u') over its
isotropic lines u, u' with B(u,u') < 0; a non-split block forms
Q(w) = b^2 Q(x) - 2ab B(x,y) + a^2 Q(y). The oracle forms Q(w) for every
block (tests/oracles.py). The kernel's (a, b) per block must be the
oracle's, its "every cut line positive" the oracle's Q(w) > 0 on every
block, and the verdict's tag the one the oracle's signs give: on
every cell of searched families, on flats moved by seeded isometries (split
with other triples), on a flat with a non-split block, on a block with an
isotropic row, and on cut lines that are themselves isotropic.
"""

import math
import random

import pytest

from geocycle import verify
from geocycle.arrangement import (
    DEFAULT_BOOST,
    arrangement_spec,
    build_family,
    search_parameters,
    standard_flat,
)
from geocycle.errors import NonNegativeVector
from geocycle.grassmann import (
    _block_lines,
    _certified_flat,
    _isotropic_lines,
    flat_new,
    general_position,
    hyperplane_new,
    intersect_flat_hyperplane,
    translate,
)
from geocycle.lattices import standard_lattice
from oracles import dense_int_blocks, product_form_cut_lines, product_form_tag

B23 = standard_lattice("bpq", 2, 3)


def assert_signs_match_product_form(flat, hyper):
    """The kernel's block lines and tag against the product form; returns the tag."""
    expected = product_form_cut_lines(flat, hyper)
    pairs, positive = _block_lines(flat, hyper)
    assert pairs == [None if e is None else e[:2] for e in expected]
    assert positive == all(e[2] > 0 for e in expected if e is not None)
    tag = intersect_flat_hyperplane(flat, hyper).tag
    assert tag == product_form_tag(expected)
    strong = general_position(flat, hyper, "strong", skip_rest_clause_when_empty=True)
    assert strong == (tag == "Point" and (not flat.int_rest or general_position(flat, hyper)))
    return tag


def lines_of(flat):
    """Each block's isotropic lines, the last entry of its block_terms."""
    return tuple(lines for *_, lines in flat.block_terms)


def seeded_hypers(l, seed, count):
    """Hyperplanes of the seeded integer normals with entries in [-2, 2]
    among `count` draws, skipping normals of Q >= 0."""
    rng = random.Random(seed)
    hypers = []
    for _ in range(count):
        try:
            hypers.append(hyperplane_new([rng.randint(-2, 2) for _ in range(l.rank)], l))
        except NonNegativeVector:
            pass
    return hypers


def tags_of(flat, hypers):
    return [assert_signs_match_product_form(flat, hyper) for hyper in hypers]


def pairing(lines, qx, bxy, qy):
    """(Q(u), Q(u'), B(u, u')) for u = al*x + be*y, u' = al2*x + be2*y."""
    al, be, al2, be2 = lines

    def b(s, t, s2, t2):
        return s * s2 * qx + (s * t2 + s2 * t) * bxy + t * t2 * qy

    return b(al, be, al, be), b(al2, be2, al2, be2), b(al, be, al2, be2)


def test_isotropic_lines_of_every_small_triple():
    # the searched triple's lines come out of the general rule: x + y and
    # y - x, so the verdict is sign(a + b) * sign(b - a) = sign(b^2 - a^2)
    assert _isotropic_lines(1, 0, -1) == (1, 1, -1, 1)
    assert _isotropic_lines(0, 1, 1) == (1, 0, 1, -2)
    split = 0
    for qx in range(-6, 7):
        for bxy in range(-6, 7):
            for qy in range(-6, 7):
                delta = bxy * bxy - qx * qy
                if delta <= 0 or math.gcd(qx, bxy, qy) != 1:
                    continue
                lines = _isotropic_lines(qx, bxy, qy)
                if math.isqrt(delta) ** 2 != delta:
                    assert lines is None
                    continue
                split += 1
                qu, qu2, buu2 = pairing(lines, qx, bxy, qy)
                assert (qu, qu2) == (0, 0) and buu2 < 0
    assert split > 100


@pytest.mark.parametrize("p,q", [(3, 4), (3, 19), (8, 8)])
def test_every_cell_of_a_searched_family_at_n64(p, q):
    n = 64
    spec = arrangement_spec(p, q, n, DEFAULT_BOOST, *search_parameters(n, DEFAULT_BOOST))
    flats, hypers = build_family(spec)
    assert {lines for flat in flats for lines in lines_of(flat)} == {(1, 1, -1, 1)}
    tags = [assert_signs_match_product_form(flat, hyper) for hyper in hypers for flat in flats]
    assert tags.count("Point") >= n + 1 and "Empty" in tags


def test_flats_moved_by_seeded_isometries_are_split_with_other_triples():
    # an isometry keeps a block's discriminant, so the moved standard flat
    # stays split, with the triples (Q(x), 0, Q(y)) of the moved rows
    spec = arrangement_spec(2, 3, 5, DEFAULT_BOOST, *search_parameters(5, DEFAULT_BOOST))
    flats, hypers = build_family(spec)
    orthogonal_to_blocks = hyperplane_new((0, 0, 0, 0, 1), B23)
    triples, tags = set(), set()
    for seed in range(12):
        g = verify.random_isometry(B23, random.Random(seed), reflections=3)
        moved = [translate(g, flat) for flat in flats]
        for flat in moved:
            assert None not in lines_of(flat)
            triples.update(t[2:] for t in dense_int_blocks(flat))
            for hyper in hypers:
                tags.add(assert_signs_match_product_form(flat, translate(g, hyper)))
                tags.add(assert_signs_match_product_form(flat, hyper))
        tags.add(assert_signs_match_product_form(moved[0], translate(g, orthogonal_to_blocks)))
    assert (1, 0, -25) in triples and len(triples) > 5
    assert dense_int_blocks(translate(
        verify.random_isometry(B23, random.Random(5), reflections=3), standard_flat(2, 3)
    ))[1][2:] == (1, 0, -25)
    assert tags == {"Point", "Empty", "Degenerate"}


def test_non_split_block_reads_the_product_form():
    # <e1, f1 + f2> has the triple (1, 0, -2), of discriminant 2, beside the
    # split block <e2, f3>; moved by isometries it stays non-split
    flat = flat_new([[(1, 0, 0, 0, 0), (0, 0, 1, 1, 0)], [(0, 1, 0, 0, 0), (0, 0, 0, 0, 1)]],
                    [(0, 0, 1, -1, 0)], B23)
    assert [t[2:] for t in dense_int_blocks(flat)] == [(1, 0, -2), (1, 0, -1)]
    assert lines_of(flat) == (None, (1, 1, -1, 1))
    hypers = seeded_hypers(B23, 19, 300)
    tags = tags_of(flat, hypers)
    assert set(tags) == {"Point", "Empty", "Degenerate"}
    rng = random.Random(23)
    for _ in range(4):
        g = verify.random_isometry(B23, rng, reflections=3)
        moved = translate(g, flat)
        assert lines_of(moved)[0] is None and lines_of(moved)[1] is not None
        assert tags_of(moved, [translate(g, hyper) for hyper in hypers]) == tags
    # the rows e1, e1 + f1 + f2 of the same block, kept as given, have the
    # triple (1, 1, -1): B(x, y) enters the product form
    sheared = _certified_flat(
        [
            [(1, 0, 0, 0, 0), (1, 0, 1, 1, 0)],
            [(0, 1, 0, 0, 0), (0, 0, 0, 0, 1)],
            [(0, 0, 1, -1, 0)],
        ],
        B23,
    )
    assert dense_int_blocks(sheared)[0][2:] == (1, 1, -1) and lines_of(sheared)[0] is None
    assert tags_of(sheared, hypers) == tags


def test_block_with_an_isotropic_row():
    # <e1 + f1, e1>: Q(x) = 0, so u = x and u' = x - 2y
    # (rows as given: flat_new would reduce the block to <e1, f1>)
    flat = _certified_flat(
        [[(1, 0, 1, 0, 0), (1, 0, 0, 0, 0)], [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)], [(0, 0, 0, 0, 1)]],
        B23,
    )
    assert [t[2:] for t in dense_int_blocks(flat)] == [(0, 1, 1), (1, 0, -1)]
    assert lines_of(flat)[0] == (1, 0, 1, -2)
    assert set(tags_of(flat, seeded_hypers(B23, 29, 300))) == {"Point", "Empty", "Degenerate"}


@pytest.mark.parametrize("sign", [1, -1])
def test_isotropic_cut_line_stays_empty(sign):
    # B(v, e1) = c and B(v, f1) = -sign*c: |a| = |b| on the (1, 0, -1) block
    # <e1, f1>, whose cut line w = b*e1 - a*f1 is isotropic
    flat = standard_flat(2, 3)
    rng = random.Random(31 + sign)
    seen = 0
    for _ in range(200):
        c, e2, f2, f3 = (rng.randint(-3, 3) for _ in range(4))
        normal = (c, e2, sign * c, f2, f3)
        if not c or not (e2 or f2) or c * c + e2 * e2 - c * c - f2 * f2 - f3 * f3 >= 0:
            continue
        hyper = hyperplane_new(normal, B23)
        a, b, q = product_form_cut_lines(flat, hyper)[0]
        assert abs(a) == abs(b) and q == 0
        assert assert_signs_match_product_form(flat, hyper) == "Empty"
        seen += 1
    assert seen > 20
