import itertools
import random
from fractions import Fraction as F

import pytest

from geocycle import obstructions
from geocycle.errors import AmbientMismatch, BudgetExceeded, NotSpanning, WrongInertia
from geocycle.lattices import combine, eval_form, quad_lattice, standard_lattice
from geocycle.linalg import matrix_inverse, restricted_definiteness, span
from geocycle.obstructions import (
    ROOT_NORM,
    _block_table,
    _enumerate_box,
    _enumerate_definite,
    _integer_square_forms,
    _is_lower_unitriangular_support,
    any_root_orthogonal,
    beta_orthogonal,
    enumerate_roots,
    inner_product,
    is_root,
    plane_orthogonal_to,
    unit_volume_scale,
)

H = standard_lattice("hyperbolic")
B11 = standard_lattice("bpq", 1, 1)
B23 = standard_lattice("bpq", 2, 3)
E8_NEG = standard_lattice("e8_neg")
K3 = standard_lattice("k3")


def naive_roots(l, bound):
    """Oracle: exhaust the whole coordinate box, summing g_ij v_i v_j over
    the nonzero Gram entries in integers."""
    entries = [(i, j, c) for i, row in enumerate(l.gram) for j, c in enumerate(row) if c]
    out = [
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=l.rank)
        if sum(c * v[i] * v[j] for i, j, c in entries) == ROOT_NORM
    ]
    return sorted(out)


class Unbounded:
    """A budget that never runs out, for the oracles."""

    def spend(self, k=1):
        pass


def box_enumerate_roots(l, bound):
    """Oracle: the whole-lattice dispatch enumerate_roots used before the
    block join, one search over all coordinates for the value -2."""
    if l.rank == 0:
        return []
    weights, icoeffs, scale = _integer_square_forms(l.gram)
    if all(w > 0 for w in weights):
        return []
    target = ROOT_NORM * scale
    if all(w < 0 for w in weights) and _is_lower_unitriangular_support(icoeffs):
        search = _enumerate_definite
    else:
        search = _enumerate_box
    found = search(weights, icoeffs, target, target, bound, l.rank, Unbounded())
    return sorted(found.get(target, []))


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


# ------------------------------------------------------------- enumeration


def test_hyperbolic_bound_1():
    assert enumerate_roots(H, 1) == [(-1, 1), (1, -1)]


def test_b11_has_no_roots():
    # x^2 - y^2 = -2 is impossible mod 4
    assert enumerate_roots(B11, 10) == []


def test_e8_neg_has_240_roots_at_bound_6():
    roots = enumerate_roots(E8_NEG, 6)
    assert len(roots) == 240
    assert all(is_root(E8_NEG, r) for r in roots)


def test_positive_definite_has_no_roots():
    assert enumerate_roots(standard_lattice("e8_pos"), 3) == []


def test_roots_closed_under_negation_and_sorted():
    roots = enumerate_roots(E8_NEG, 6)
    as_set = set(roots)
    assert all(tuple(-x for x in r) in as_set for r in roots)
    assert roots == sorted(roots)


@pytest.mark.parametrize(
    "lattice,bound",
    [
        (B11, 3),
        (H, 3),
        (standard_lattice("bpq", 2, 2), 2),
        (quad_lattice([[-2, 1], [1, -2]]), 3),
        (combine(H, quad_lattice([[-2]])), 2),
        (combine(H, H), 2),
    ],
)
def test_pruned_equals_naive(lattice, bound):
    assert enumerate_roots(lattice, bound) == naive_roots(lattice, bound)


NAMED_AT_SMALL_BOUNDS = [
    (H, 1), (H, 3), (H, 10),
    (B11, 4),
    (standard_lattice("bpq", 1, 2), 3),
    (standard_lattice("bpq", 2, 1), 3),
    (standard_lattice("bpq", 1, 3), 2),
    (standard_lattice("bpq", 2, 2), 2),
    (E8_NEG, 1),
    (standard_lattice("e8_pos"), 1),
]


@pytest.mark.parametrize("lattice,bound", NAMED_AT_SMALL_BOUNDS)
def test_join_matches_both_oracles_on_named_lattices(lattice, bound):
    # K3 has no bound small enough: at bound 1 it runs out of budget
    # (tests/test_cli.py), and its blocks are H and -E8
    got = enumerate_roots(lattice, bound)
    assert got == naive_roots(lattice, bound)
    assert got == box_enumerate_roots(lattice, bound)


def test_join_matches_the_box_search_on_b24():
    b24 = standard_lattice("bpq", 2, 4)
    at_3 = enumerate_roots(b24, 3)
    assert len(at_3) == 4792
    assert at_3 == box_enumerate_roots(b24, 3) == naive_roots(b24, 3)
    at_4 = enumerate_roots(b24, 4)
    assert len(at_4) == 12376
    assert at_4 == box_enumerate_roots(b24, 4)


def test_hyperbolic_at_bound_200_builds_no_box_table(monkeypatch):
    assert box_enumerate_roots(H, 200) == [(-1, 1), (1, -1)]
    # 401^2 vectors are in the box; the join needs a handful of nodes
    monkeypatch.setattr(obstructions, "ROOT_NODE_BUDGET", 20)
    assert enumerate_roots(H, 200) == [(-1, 1), (1, -1)]


# the orthogonal blocks of the random sums below
BLOCKS = {
    "+1": [[1]], "-1": [[-1]], "+2": [[2]], "-2": [[-2]], "+3": [[3]], "-3": [[-3]],
    "H": [[0, 1], [1, 0]],
    "2H": [[0, 2], [2, 0]],
    "-H": [[0, -1], [-1, 0]],
    "A2": [[2, -1], [-1, 2]],
    "-A2": [[-2, 1], [1, -2]],
    "indefinite2": [[1, 1], [1, -1]],
    "indefinite3": [[1, 1, 0], [1, -1, 1], [0, 1, 1]],
}


def random_block_sum(rng, max_rank):
    """An orthogonal sum of random BLOCKS, with its coordinates conjugated
    by a random permutation so that the blocks interleave."""
    grams = []
    rank = 0
    while True:
        g = rng.choice(list(BLOCKS.values()))
        if grams and rank + len(g) > max_rank:
            break
        grams.append(g)
        rank += len(g)
    total = quad_lattice([])
    for g in grams:
        total = combine(total, quad_lattice(g))
    perm = list(range(rank))
    rng.shuffle(perm)
    return quad_lattice([[total.gram[perm[i]][perm[j]] for j in range(rank)] for i in range(rank)])


def test_join_matches_both_oracles_on_random_interleaved_block_sums():
    rng = random.Random(20261018)
    interleaved = 0
    for _ in range(150):
        l = random_block_sum(rng, 5)
        bound = rng.randint(1, 2)
        got = enumerate_roots(l, bound)
        assert got == naive_roots(l, bound), l.gram
        assert got == box_enumerate_roots(l, bound), l.gram
        blocks = obstructions._orthogonal_blocks(l.gram)
        interleaved += [i for b in blocks for i in b] != list(range(l.rank))
    assert interleaved >= 50  # the scatter back to coordinates is exercised


@pytest.mark.parametrize(
    "gram", list(BLOCKS.values()) + [standard_lattice("e8_pos").gram],
    ids=list(BLOCKS) + ["E8"],
)
def test_block_tables_are_exact_on_their_windows(gram):
    rng = random.Random(len(gram) * 1000 + gram[0][0])
    l = quad_lattice(gram)
    n = l.rank
    forms = None if n == 1 or obstructions._hyperbolic_entry(gram) else _integer_square_forms(gram)
    for bound in (1, 2, 3):
        if (2 * bound + 1) ** n > 3 ** 8:
            break
        box = list(itertools.product(range(-bound, bound + 1), repeat=n))
        values = {v: int(eval_form(l, v, v)) for v in box}
        lo_all, hi_all = obstructions._block_range(gram, forms, bound)
        assert lo_all <= min(values.values()) and max(values.values()) <= hi_all
        for _ in range(6):
            lo = rng.randint(lo_all, hi_all)
            hi = rng.randint(lo, hi_all)
            if forms is not None and all(w < 0 for w in forms[0]):
                lo, hi = min(lo, 0), min(hi, 0)  # the definite search wants lo <= 0
            table = _block_table(gram, forms, lo, hi, bound, Unbounded())
            expected = {}
            for v in box:
                if lo <= values[v] <= hi:
                    expected.setdefault(values[v], []).append(v)
            assert {k: sorted(vs) for k, vs in table.items()} == expected


def test_budget_stops_the_box_search_on_an_irreducible_indefinite_block(monkeypatch):
    l = quad_lattice([[1, 1, 0], [1, -1, 1], [0, 1, 1]])
    forms = _integer_square_forms(l.gram)
    assert not all(w < 0 for w in forms[0]) and not all(w > 0 for w in forms[0])
    assert enumerate_roots(l, 3) == naive_roots(l, 3)
    monkeypatch.setattr(obstructions, "ROOT_NODE_BUDGET", 50)
    with pytest.raises(BudgetExceeded, match="more than 50 nodes") as excinfo:
        enumerate_roots(l, 3)
    assert any(entry.name == "_enumerate_box" for entry in excinfo.traceback)


def test_budget_counts_the_roots_before_building_them(monkeypatch):
    b24 = standard_lattice("bpq", 2, 4)
    monkeypatch.setattr(obstructions, "ROOT_NODE_BUDGET", 4792)
    with pytest.raises(BudgetExceeded) as excinfo:
        enumerate_roots(b24, 3)
    assert any(entry.name == "_join" for entry in excinfo.traceback)


def test_box_bound_is_respected():
    # the negated square lattice has roots (+-1, 0), (0, +-1) at bound 1
    minus_two = quad_lattice([[-2, 0], [0, -2]])
    assert enumerate_roots(minus_two, 1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        enumerate_roots(H, 0)


# ------------------------------------------------------------ orthogonality


def test_plane_orthogonal_examples():
    b12 = standard_lattice("bpq", 1, 2)
    assert plane_orthogonal_to(span([(1, 0, 0)]), (0, 1, 0), b12)
    assert not plane_orthogonal_to(span([(1, 0, 0)]), (1, 1, 0), b12)


def test_arrangement_diagonal_point_lies_on_its_hyperplane():
    # the boosted plane <a e_1 + b f_1, e_2> pairs to zero with the boosted
    # normal b e_1 + a f_1 + f_2
    a, b = F(65, 16), F(63, 16)
    plane = span([(a, 0, b, 0, 0), (0, 1, 0, 0, 0)])
    lam = (b, 0, a, 1, 0)
    assert plane_orthogonal_to(plane, lam, B23)


def test_plane_orthogonal_scale_invariance():
    rng = random.Random(89)
    plane = span([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    for _ in range(20):
        delta = tuple(rng.randint(-4, 4) for _ in range(5))
        for c in (2, -3, 7):
            assert plane_orthogonal_to(plane, delta, B23) == plane_orthogonal_to(
                plane, tuple(c * x for x in delta), B23
            )


def test_plane_orthogonal_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        plane_orthogonal_to(span([(1, 0)]), (1, 0), B23)


def k3_positive_plane():
    # one positive vector (1,1) inside each hyperbolic block
    v1 = [0] * 22
    v1[0] = v1[1] = 1
    v2 = [0] * 22
    v2[2] = v2[3] = 1
    v3 = [0] * 22
    v3[4] = v3[5] = 1
    plane = span([v1, v2, v3])
    assert restricted_definiteness(plane, K3) == (3, 0, 0)
    return plane


def embedded_e8_roots():
    offset = 6  # first negated-E8 block of the k3 gram
    return [(0,) * offset + r + (0,) * (22 - offset - 8) for r in enumerate_roots(E8_NEG, 6)]


def test_standard_plane_is_orthogonal_to_block_roots():
    roots = embedded_e8_roots()
    assert any_root_orthogonal(k3_positive_plane(), roots, K3) == roots[0]


def test_perturbed_plane_misses_every_block_root():
    # perturb along a direction pairing nontrivially with every root: the
    # preimage of the all-ones functional under the block Gram
    w = matrix_inverse(E8_NEG.gram_matrix())
    ones = tuple(F(1) for _ in range(8))
    direction = tuple(sum(w[i][j] * ones[j] for j in range(8)) for i in range(8))
    bump = [F(0)] * 22
    for i in range(8):
        bump[6 + i] = direction[i] / 100
    v1 = [F(0)] * 22
    v1[0] = v1[1] = F(1)
    v2 = [F(0)] * 22
    v2[2] = v2[3] = F(1)
    v3 = [F(0)] * 22
    v3[4] = v3[5] = F(1)
    perturbed = span(
        [tuple(a + b for a, b in zip(v1, bump)), tuple(v2), tuple(v3)], ambient=22
    )
    assert perturbed.dim == 3
    assert restricted_definiteness(perturbed, K3) == (3, 0, 0)
    assert any_root_orthogonal(perturbed, embedded_e8_roots(), K3) is None


def test_any_root_orthogonal_empty_list():
    assert any_root_orthogonal(k3_positive_plane(), [], K3) is None


# ---------------------------------------------------------- inner products


def test_beta_orthogonal_axes():
    beta = inner_product([[1, 0], [0, 1]])
    assert beta_orthogonal(beta, span([(1, 0)]), span([(0, 1)]))
    assert not beta_orthogonal(beta, span([(1, 0)]), span([(1, 1)]))


def test_beta_orthogonal_weighted():
    beta = inner_product([[1, 0], [0, 2]])
    assert beta_orthogonal(beta, span([(1, 1)]), span([(2, -1)]))


def test_beta_orthogonal_scale_invariant():
    rng = random.Random(97)
    for _ in range(20):
        beta = inner_product([[2, 1], [1, 2]])
        p_sub = span([(rng.randint(-3, 3), rng.randint(1, 3))])
        l_sub = span([(1, rng.randint(-3, 3))])
        if (p_sub.basis and l_sub.basis and
                (p_sub.dim + l_sub.dim == 2) and
                span(p_sub.basis + l_sub.basis).dim == 2):
            scaled = tuple(tuple(3 * x for x in row) for row in beta)
            assert beta_orthogonal(beta, p_sub, l_sub) == beta_orthogonal(scaled, p_sub, l_sub)


def test_beta_orthogonal_dimension_violations():
    beta = inner_product([[1, 0], [0, 1]])
    with pytest.raises(NotSpanning):
        beta_orthogonal(beta, span([(1, 0)]), span([(1, 0), (0, 1)]))
    with pytest.raises(NotSpanning):
        beta_orthogonal(beta, span([(1, 0)]), span([(1, 0)]))  # not complementary


def test_inner_product_must_be_positive_definite():
    with pytest.raises(WrongInertia):
        inner_product([[1, 0], [0, -1]])


def test_unit_volume_scale():
    beta = inner_product([[4, 0], [0, 1]])
    s = unit_volume_scale(beta)
    assert abs(s * s * 4 - 1.0) < 1e-12
