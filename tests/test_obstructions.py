import itertools
import math
import random
from fractions import Fraction as F

import pytest

from geocycle import obstructions
from geocycle.errors import AmbientMismatch, BudgetExceeded
from geocycle.lattices import combine, eval_form, quad_lattice, standard_lattice
from geocycle.linalg import perp, restricted_definiteness, span
from geocycle.obstructions import (
    ROOT_NORM,
    _block_table,
    _enumerate_box,
    _enumerate_definite,
    _integer_square_forms,
    any_root_orthogonal,
    enumerate_roots,
    plane_orthogonal_to,
)
from geocycle.verify import naive_roots
from oracles import (
    inverse_square_forms,
    is_lower_unitriangular_support,
    oracle_matrix_inverse,
    product_join,
)

H = standard_lattice("hyperbolic")
B11 = standard_lattice("bpq", 1, 1)
B23 = standard_lattice("bpq", 2, 3)
E8_NEG = standard_lattice("e8_neg")
K3 = standard_lattice("k3")


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
    if all(w < 0 for w in weights) and is_lower_unitriangular_support(icoeffs):
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
    assert all(eval_form(E8_NEG, r, r) == -2 for r in roots)


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
    forms = None if obstructions._hyperbolic_entry(gram) else _integer_square_forms(gram)
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
            table = _block_table(gram, forms, lo, hi, bound, Unbounded())
            expected = {}
            for v in box:
                if lo <= values[v] <= hi:
                    expected.setdefault(values[v], []).append(v)
            assert {k: sorted(vs) for k, vs in table.items()} == expected
        # windows wholly past either end of the range, 0 included
        for lo, hi in ((lo_all - 5, lo_all - 1), (hi_all + 1, hi_all + 5)):
            assert _block_table(gram, forms, lo, hi, bound, Unbounded()) == {}


SQUARE_FORM_GRAMS = {
    **BLOCKS, "E8": standard_lattice("e8_pos").gram, "-E8": E8_NEG.gram,
}


@pytest.mark.parametrize("name", list(SQUARE_FORM_GRAMS))
def test_square_forms_sum_to_scale_times_q(name):
    gram = SQUARE_FORM_GRAMS[name]
    n = len(gram)
    weights, icoeffs, scale = _integer_square_forms(gram)
    assert scale > 0 and all(type(w) is int and w for w in weights)
    for row in icoeffs:
        assert math.gcd(*row) == 1 and next(c for c in row if c) > 0
    rng = random.Random(name)
    for _ in range(50):
        x = [rng.randint(-9, 9) for _ in range(n)]
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        squares = sum(w * sum(c * xi for c, xi in zip(row, x)) ** 2 for w, row in zip(weights, icoeffs))
        assert squares == scale * q
    oracle = inverse_square_forms(gram)
    if is_lower_unitriangular_support(oracle[1]):
        assert (weights, icoeffs, scale) == oracle


def test_roots_are_the_same_with_the_inverse_based_forms(monkeypatch):
    rng = random.Random(41)
    cases = [(random_block_sum(rng, 5), rng.randint(1, 2)) for _ in range(40)]
    cases += [(E8_NEG, 6), (standard_lattice("e8_pos"), 2), (B23, 2), (quad_lattice(BLOCKS["indefinite3"]), 3)]
    expected = [enumerate_roots(l, bound) for l, bound in cases]
    monkeypatch.setattr(obstructions, "_integer_square_forms", inverse_square_forms)
    assert [enumerate_roots(l, bound) for l, bound in cases] == expected
    assert len(expected[-4]) == 240  # every root of -E8 lies in the box of radius 6


def test_budget_stops_the_box_search_on_an_irreducible_indefinite_block(monkeypatch):
    l = quad_lattice([[1, 1, 0], [1, -1, 1], [0, 1, 1]])
    forms = _integer_square_forms(l.gram)
    assert not all(w < 0 for w in forms[0]) and not all(w > 0 for w in forms[0])
    assert enumerate_roots(l, 3) == naive_roots(l, 3)
    monkeypatch.setattr(obstructions, "ROOT_NODE_BUDGET", 50)
    with pytest.raises(BudgetExceeded, match="more than 50 nodes") as excinfo:
        enumerate_roots(l, 3)
    assert any(entry.name == "_enumerate_box" for entry in excinfo.traceback)


def counted_roots(l, bound):
    """enumerate_roots(l, bound) with the nodes its budget spent."""
    budgets = []

    class Counted(obstructions._Budget):
        def __init__(self):
            super().__init__()
            budgets.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obstructions, "_Budget", Counted)
        roots = enumerate_roots(l, bound)
    (budget,) = budgets
    return roots, budget.nodes


def test_join_matches_the_product_join_in_roots_and_nodes(monkeypatch):
    # the random sums of the interleaved-block test, then -E8 and B(2,4)
    rng = random.Random(20261018)
    cases = [(random_block_sum(rng, 5), rng.randint(1, 2)) for _ in range(150)]
    b24 = standard_lattice("bpq", 2, 4)
    cases += [(E8_NEG, 6), (b24, 3), (b24, 4)]
    expected = [counted_roots(l, bound) for l, bound in cases]
    monkeypatch.setattr(obstructions, "_join", product_join)
    assert [counted_roots(l, bound) for l, bound in cases] == expected
    assert [(len(roots), nodes) for roots, nodes in expected[-3:]] == [
        (240, 992), (4792, 5690), (12376, 14336),
    ]
    interleaved = hyperbolic = 0
    for l, _ in cases:
        blocks = obstructions._orthogonal_blocks(l.gram)
        interleaved += [i for b in blocks for i in b] != list(range(l.rank))
        hyperbolic += any(
            obstructions._hyperbolic_entry([[l.gram[i][j] for j in b] for i in b]) for b in blocks
        )
    assert sum(bool(roots) for roots, _ in expected) >= 100
    assert interleaved >= 50 and hyperbolic >= 50


@pytest.mark.parametrize("p,q,bound,nodes", [(2, 4, 4, 14_336), (3, 5, 3, 210_237)])
def test_node_counts_quoted_in_the_readme(p, q, bound, nodes):
    assert counted_roots(standard_lattice("bpq", p, q), bound)[1] == nodes


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


DIAGONAL_WEIGHTS = (-6, -5, -3, -2, -1, 1, 2, 3, 5, 6)


def test_diagonal_lattices_match_the_naive_oracle():
    # Q mod 8 depends on each x_i mod 8 alone, so [0, 8)^rank gives every
    # residue; a lattice that misses -2 there has no roots at any bound, and
    # enumerate_roots answers it at once where its tables would overrun
    unreachable = 0
    for rank in (2, 3):
        for weights in itertools.combinations_with_replacement(DIAGONAL_WEIGHTS, rank):
            l = quad_lattice([[w if i == j else 0 for j in range(rank)] for i, w in enumerate(weights)])
            assert enumerate_roots(l, 2) == naive_roots(l, 2), weights
            values = {sum(w * x * x for w, x in zip(weights, xs)) % 8
                      for xs in itertools.product(range(8), repeat=rank)}
            if ROOT_NORM % 8 not in values:
                unreachable += 1
                assert enumerate_roots(l, 10**20) == [], weights
    assert unreachable == 18


def local_values(weights, mod):
    """The values of sum w_i x_i^2 mod `mod`, x running over [0, mod)^rank."""
    return {sum(w * x * x for w, x in zip(weights, xs)) % mod
            for xs in itertools.product(range(mod), repeat=len(weights))}


def test_diagonal_lattices_past_mod_8_match_the_naive_oracle():
    # a form that misses -2 modulo an odd prime dividing a weight has no
    # roots at any bound; the test reads every residue off the box [0, p)
    newly = 0
    for rank in (2, 3):
        for weights in itertools.combinations_with_replacement((*DIAGONAL_WEIGHTS, -7, 7), rank):
            l = quad_lattice([[w if i == j else 0 for j in range(rank)] for i, w in enumerate(weights)])
            assert enumerate_roots(l, 2) == naive_roots(l, 2), weights
            primes = [p for p in (3, 5, 7) if any(w % p == 0 for w in weights)]
            if ROOT_NORM % 8 in local_values(weights, 8) and any(
                ROOT_NORM % p not in local_values(weights, p) for p in primes
            ):
                newly += 1
                assert enumerate_roots(l, 10**9) == [], weights
    assert newly == 120


@pytest.mark.parametrize("gram,prime", [([[2, 0], [0, -3]], 3), ([[6, 0], [0, -5]], 5)])
def test_a_form_missing_a_root_mod_an_odd_prime_has_none(gram, prime):
    assert ROOT_NORM % 8 in local_values([gram[0][0], gram[1][1]], 8)
    assert ROOT_NORM % prime not in local_values([gram[0][0], gram[1][1]], prime)
    assert enumerate_roots(quad_lattice(gram), 10**9) == []


@pytest.mark.parametrize("gram,root", [([[2, 0], [0, -5]], (3, 2)), ([[3, 0], [0, -5]], (1, 1))])
def test_a_form_with_a_root_still_builds_its_tables(gram, root):
    l = quad_lattice(gram)
    assert root in enumerate_roots(l, 3) == naive_roots(l, 3)
    with pytest.raises(BudgetExceeded, match="stopped after visiting 0"):
        enumerate_roots(l, 10**9)


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


def test_plane_orthogonal_matches_the_fraction_pairing():
    # the plane's integer rows against the cleared vector, checked against
    # eval_form on every Fraction basis vector of the plane
    rng = random.Random(61)
    b12 = standard_lattice("bpq", 1, 2)
    assert not plane_orthogonal_to(span([(1, 0, 0), (0, 1, 0)]), (0, F(1, 2), 0), b12)
    seen = set()
    for l in (B23, E8_NEG, K3):
        for _ in range(40):
            rows = [[rng.choice((0, 0, F(rng.randint(-3, 3), rng.randint(1, 3))))
                     for _ in range(l.rank)] for _ in range(rng.randint(1, 3))]
            plane = span(rows, ambient=l.rank)
            normals = perp(plane, l).basis
            if normals and rng.random() < 0.5:
                delta = [F(rng.randint(1, 5), rng.randint(1, 5)) * x for x in rng.choice(normals)]
            else:
                delta = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(l.rank)]
            expected = all(eval_form(l, b, delta) == 0 for b in plane.basis)
            assert plane_orthogonal_to(plane, delta, l) == expected
            seen.add(expected)
    assert seen == {True, False}


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
    w = oracle_matrix_inverse(E8_NEG.gram)
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
