"""The closed-form block-line kernel against the general subspace kernel.

The oracle computes every verdict with the general machinery: the line cut
out of each block is intersect(perp(<v>), block), its sign comes from
restricted_definiteness, and the rest clause holds iff <v> meets
perp(rest) trivially. The stabilizer oracle writes v in the flat's
component basis by a matrix inverse, flips the block coordinates and tests
whether the image stays on <v>. Tags, reasons, Point planes, both
general-position modes and the stabilizer sign patterns must agree with the
kernel on every input below.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from geocycle import verify
from geocycle.arrangement import (
    DEFAULT_BOOST,
    arrangement_spec,
    build_family,
    search_parameters,
    standard_flat,
)
from geocycle.grassmann import (
    general_position,
    hyperplane_new,
    intersect_flat_hyperplane,
    stabilizer_sign_patterns,
    translate,
)
from geocycle.lattices import eval_form, standard_lattice
from geocycle.linalg import (
    as_matrix,
    intersect,
    mat_vec,
    matrix_inverse,
    perp,
    restricted_definiteness,
    span,
    transpose,
)


def oracle(flat, hyper):
    """Cut lines of every block, their signs, and the rest clause."""
    l = flat.lattice
    normal_line = span([hyper.normal], ambient=l.rank)
    complement = perp(normal_line, l)
    lines = [intersect(complement, block) for block in flat.blocks]
    positive = [line.dim == 1 and restricted_definiteness(line, l) == (1, 0, 0) for line in lines]
    rest_clause = intersect(perp(flat.rest, l), normal_line).dim == 0
    return lines, positive, rest_clause


def oracle_stabilizer(flat, hyper):
    """Sign patterns whose flip (+-1 on each block, +1 on the rest) keeps
    <v> invariant, by a change of basis to the flat's components."""
    columns = [row for b in flat.blocks for row in b.basis] + list(flat.rest.basis)
    change = transpose(as_matrix(columns))  # columns = component basis
    coords = mat_vec(matrix_inverse(change), hyper.normal)
    sizes = [b.dim for b in flat.blocks] + [flat.rest.dim]
    line = span([hyper.normal], ambient=flat.lattice.rank)
    patterns = []
    for signs in itertools.product((1, -1), repeat=flat.block_count):
        scale = []
        for s, size in zip(list(signs) + [1], sizes):
            scale.extend([s] * size)
        image = mat_vec(change, tuple(c * s for c, s in zip(coords, scale)))
        if line.contains(image):
            patterns.append(signs)
    return patterns


def oracle_verdict(lines, positive, rest_clause, check_rest_clause):
    for i, line in enumerate(lines):
        if line.dim != 1:
            return "Degenerate", f"dim_not_one({i})", None
    if check_rest_clause and not rest_clause:
        return "Degenerate", "rest_clause_fails", None
    if all(positive):
        ambient = lines[0].ambient
        return "Point", None, span([row for line in lines for row in line.basis], ambient=ambient)
    return "Empty", None, None


def oracle_general_position(lines, positive, rest_clause, rest_dim, mode, skip):
    if any(line.dim != 1 for line in lines):
        return False
    if not (skip and rest_dim == 0) and not rest_clause:
        return False
    return mode == "weak" or all(positive)


def assert_matches_oracle(flat, hyper):
    lines, positive, rest_clause = oracle(flat, hyper)
    for check in (False, True):
        v = intersect_flat_hyperplane(flat, hyper, check_rest_clause=check)
        got = (v.tag, v.reason, v.point.plane if v.point is not None else None)
        assert got == oracle_verdict(lines, positive, rest_clause, check)
    for mode in ("weak", "strong"):
        for skip in (False, True):
            expected = oracle_general_position(
                lines, positive, rest_clause, flat.rest.dim, mode, skip
            )
            assert general_position(flat, hyper, mode, skip_rest_clause_when_empty=skip) == expected
    assert stabilizer_sign_patterns(flat, hyper) == oracle_stabilizer(flat, hyper)


def assert_family_matches(spec):
    flats, hypers = build_family(spec)
    for hyper in hypers:
        for flat in flats:
            assert_matches_oracle(flat, hyper)


@pytest.mark.parametrize(
    "p,q,n",
    [(2, 3, 5), (3, 3, 5), (3, 4, 5), (3, 4, 12), (3, 4, 24), (3, 4, 32), (2, 5, 8), (4, 5, 8)],
)
def test_searched_family_matches_oracle(p, q, n):
    m, t = search_parameters(p, q, n, DEFAULT_BOOST)
    assert_family_matches(arrangement_spec(p, q, n, DEFAULT_BOOST, m, t))


@pytest.mark.parametrize("p,q,n,m,t", [(2, 3, 6, 1, F(1, 4)), (3, 3, 7, 2, F(1, 3))])
def test_non_triangular_family_matches_oracle(p, q, n, m, t):
    assert_family_matches(arrangement_spec(p, q, n, DEFAULT_BOOST, m, t))


@pytest.mark.parametrize(
    "p,q,normal",
    [
        (2, 3, (0, 0, 0, 1, 1)),  # orthogonal to block 0
        (2, 3, (1, 0, 2, 0, 0)),  # orthogonal to block 1 and to the rest
        (2, 3, (0, 0, 0, 0, 1)),  # orthogonal to both blocks
        (2, 3, (1, 1, 2, 2, 0)),  # orthogonal to the rest only
        (2, 3, (1, 0, 1, 1, 0)),  # isotropic cut line in block 0
        (2, 2, (0, 1, 0, 2)),  # orthogonal to block 0, zero-dimensional rest
        (2, 2, (1, 1, 2, 2)),  # zero-dimensional rest, both lines cut
        (2, 3, (3, 0, 5, 4, 4)),  # strong position: all-ones pattern only
        (1, 1, (0, 1)),  # zero-dimensional rest: both patterns
        (3, 4, (0, 0, 0, 1, 0, 0, 0)),  # only a block-0 component
        (3, 4, (0, 0, 0, 0, 0, 0, 1)),  # only a rest component
    ],
)
def test_special_normals_match_oracle(p, q, normal):
    l = standard_lattice("bpq", p, q)
    flat = standard_flat(p, q, l)
    hyper = hyperplane_new(normal, l)
    assert_matches_oracle(flat, hyper)
    g = verify.random_isometry(l, random.Random(sum(normal)), reflections=3)
    assert_matches_oracle(translate(g, flat), translate(g, hyper))


def test_random_strong_position_pairs_match_oracle():
    rng = random.Random(2024)
    for i in range(100):
        p, q = ((2, 3), (3, 4))[i % 2]
        flat, hyper = verify._random_strong_position_pair(p, q, rng)
        assert_matches_oracle(flat, hyper)
        assert general_position(flat, hyper, "strong")


def test_random_strong_position_pair_needs_a_rest():
    with pytest.raises(ValueError):
        verify._random_strong_position_pair(2, 2, random.Random(1))


def test_random_small_normals_match_oracle():
    # small integer coordinates hit every mix of vanishing block and rest
    # components, in signatures from (1, 1) to (2, 5)
    rng = random.Random(73)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (2, 5)):
        l = standard_lattice("bpq", p, q)
        flat = standard_flat(p, q, l)
        g = verify.random_isometry(l, rng, reflections=2)
        moved = translate(g, flat)
        for _ in range(40):
            normal = tuple(rng.randint(-1, 1) for _ in range(l.rank))
            if eval_form(l, normal, normal) >= 0:
                continue
            hyper = hyperplane_new(normal, l)
            assert_matches_oracle(flat, hyper)
            assert_matches_oracle(moved, translate(g, hyper))
