"""The closed-form block-line kernel against the general subspace kernel.

The oracle computes every verdict with the general machinery: the line cut
out of each block is intersect(perp(<v>), block), its sign comes from
restricted_definiteness, and the rest clause holds iff <v> meets
perp(rest) trivially. Tags, reasons, Point planes and both general-position
modes must agree with the kernel on every input below.
"""

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
    translate,
)
from geocycle.lattices import standard_lattice
from geocycle.linalg import intersect, perp, restricted_definiteness, span


def oracle(flat, hyper):
    """Cut lines of every block, their signs, and the rest clause."""
    l = flat.lattice
    complement = perp(span([hyper.normal], ambient=l.rank), l)
    lines = [intersect(complement, block) for block in flat.blocks]
    positive = [line.dim == 1 and restricted_definiteness(line, l) == (1, 0, 0) for line in lines]
    rest_clause = intersect(perp(flat.rest, l), hyper.line).dim == 0
    return lines, positive, rest_clause


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
