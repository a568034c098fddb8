"""The closed-form block-line kernel against the general subspace kernel,
and the integer flat certificate against the Fraction one it replaced.

The oracle computes every verdict with the general machinery: the line cut
out of each block is intersect(perp(<v>), block), its sign comes from
restricted_definiteness, and the rest clause holds iff <v> meets
perp(rest) trivially. The stabilizer oracle writes v in the flat's
component basis by a matrix inverse, flips the block coordinates and tests
whether the image stays on <v>. Tags, reasons, Point planes, both
general-position modes and the stabilizer sign patterns must agree with the
kernel on every input below.

The flat oracle is the Fraction flat_new: RREF spans, restricted inertia
and eval_form pairs. It must agree with flat_new on accept or reject, on
the exception class and on the block and rest subspaces, and every flat a
family or a translate builds must have the subspaces it gives.

The hyperplane oracle is the Fraction hyperplane_new: eval_form's Q < 0 on
the rational normal as given, and translate through oracle_apply. It must
agree with hyperplane_new and translate on accept or reject, on the
exception class and on the normal's line, and the verdict oracles above run
on its Fraction normal, not on the kernel's primitive one.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from geocycle import verify
from geocycle.arrangement import (
    DEFAULT_BOOST,
    arrangement_spec,
    base_hyperplane_normal,
    build_family,
    search_parameters,
    standard_flat,
)
from geocycle.errors import (
    AmbientMismatch,
    NonNegativeVector,
    NotOrthogonal,
    NotSpanning,
    WrongInertia,
)
from geocycle.grassmann import (
    flat_new,
    general_position,
    hyperplane_new,
    intersect_flat_hyperplane,
    stabilizer_sign_patterns,
    translate,
)
from geocycle.lattices import eval_form, quad_lattice, standard_lattice
from geocycle.linalg import (
    as_vector,
    intersect,
    perp,
    restricted_definiteness,
    span,
)
from oracles import (
    as_matrix,
    mat_vec,
    oracle_apply,
    oracle_matrix_inverse,
    rotation_isometry,
    rotation_power,
    transpose,
)


def oracle(flat, normal):
    """Cut lines of every block, their signs, and the rest clause, for the
    hyperplane orthogonal to the rational vector normal."""
    l = flat.lattice
    normal_line = span([normal], ambient=l.rank)
    complement = perp(normal_line, l)
    lines = [intersect(complement, block) for block in flat.blocks]
    positive = [line.dim == 1 and restricted_definiteness(line, l) == (1, 0, 0) for line in lines]
    rest_clause = intersect(perp(flat.rest, l), normal_line).dim == 0
    return lines, positive, rest_clause


def oracle_stabilizer(flat, normal):
    """Sign patterns whose flip (+-1 on each block, +1 on the rest) keeps
    <v> invariant, by a change of basis to the flat's components."""
    columns = [row for b in flat.blocks for row in b.basis] + list(flat.rest.basis)
    change = transpose(as_matrix(columns))  # columns = component basis
    coords = mat_vec(oracle_matrix_inverse(change), normal)
    sizes = [b.dim for b in flat.blocks] + [flat.rest.dim]
    line = span([normal], ambient=flat.lattice.rank)
    patterns = []
    for signs in itertools.product((1, -1), repeat=flat.block_count):
        scale = []
        for s, size in zip(list(signs) + [1], sizes):
            scale.extend([s] * size)
        image = mat_vec(change, tuple(c * s for c, s in zip(coords, scale)))
        if line.contains(image):
            patterns.append(signs)
    return patterns


def oracle_verdict(lines, positive):
    for i, line in enumerate(lines):
        if line.dim != 1:
            return "Degenerate", f"dim_not_one({i})", None
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


def assert_matches_oracle(flat, hyper, normal):
    """The kernel's verdicts on (flat, hyper) against the general kernel's
    on the hyperplane orthogonal to the rational vector normal, which the
    Fraction oracle built; hyper must hold normal's line."""
    assert_primitive_normal(hyper, normal)
    lines, positive, rest_clause = oracle(flat, normal)
    v = intersect_flat_hyperplane(flat, hyper)
    got = (v.tag, v.reason, v.point.plane if v.point is not None else None)
    assert got == oracle_verdict(lines, positive)
    for mode in ("weak", "strong"):
        for skip in (False, True):
            expected = oracle_general_position(
                lines, positive, rest_clause, flat.rest.dim, mode, skip
            )
            assert general_position(flat, hyper, mode, skip_rest_clause_when_empty=skip) == expected
    assert stabilizer_sign_patterns(flat, hyper) == oracle_stabilizer(flat, normal)


def fraction_hyperplane_new(normal, l):
    """The Fraction hyperplane_new hyperplanes had before they were primitive
    integer normals: Q < 0 by eval_form on the rational normal as given.
    Returns that normal."""
    v = as_vector(normal)
    q = eval_form(l, v, v)
    if q >= 0:
        raise NonNegativeVector(f"hyperplane normal needs negative self-pairing, got {q}")
    return v


def fraction_translate(g, normal):
    """The Fraction translate of a hyperplane: g applied to the rational
    normal by oracle_apply, then fraction_hyperplane_new."""
    return fraction_hyperplane_new(oracle_apply(g, normal), g.lattice)


def assert_primitive_normal(hyper, normal):
    """hyper.normal is the primitive integer vector on normal's line, with
    its first nonzero entry positive."""
    x = hyper.normal
    assert all(isinstance(c, int) for c in x)
    assert math.gcd(*x) == 1
    assert next(c for c in x if c) > 0
    assert span([x], ambient=len(x)) == span([normal], ambient=len(x))


def hyperplane_outcome(build, normal, l):
    try:
        return build(normal, l)
    except Exception as e:
        return type(e)


def assert_hyperplane_new_matches_oracle(normal, l):
    """(hyperplane, Fraction normal) of an accepted normal, else the class
    of the exception both constructors raised."""
    expected = hyperplane_outcome(fraction_hyperplane_new, normal, l)
    got = hyperplane_outcome(hyperplane_new, normal, l)
    if isinstance(expected, type):
        assert got is expected
        return expected
    assert_primitive_normal(got, expected)
    return got, expected


def fraction_flat_new(u_bases, n_basis, l):
    """The Fraction certificate flat_new ran before flats were integer rows:
    an RREF span per component, restricted inertia of each, eval_form over
    every cross pair, and an RREF span of everything. Returns the block
    subspaces and the rest subspace."""
    blocks = tuple(span(rows, ambient=l.rank) for rows in u_bases)
    if not blocks:
        raise ValueError("a flat needs at least one hyperbolic block")
    rest = span(n_basis, ambient=l.rank)
    for i, b in enumerate(blocks):
        sig = restricted_definiteness(b, l)
        if sig != (1, 1, 0):
            raise WrongInertia(f"block {i} has restricted inertia {sig}, expected (1, 1, 0)")
    rest_sig = restricted_definiteness(rest, l)
    if rest_sig != (0, rest.dim, 0):
        raise WrongInertia(f"rest has restricted inertia {rest_sig}, expected negative definite")
    parts = list(blocks) + [rest]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for x in parts[i].basis:
                for y in parts[j].basis:
                    if eval_form(l, x, y) != 0:
                        raise NotOrthogonal(f"components {i} and {j} are not orthogonal")
    total = span([row for part in parts for row in part.basis], ambient=l.rank)
    if total.dim != l.rank:
        raise NotSpanning(f"components span only {total.dim} of {l.rank} dimensions")
    return blocks, rest


def flat_outcome(build, u_bases, n_basis, l):
    """(block subspaces, rest subspace) of an accepted input, else the
    class of the exception it raised."""
    try:
        made = build(u_bases, n_basis, l)
    except Exception as e:
        return type(e)
    if isinstance(made, tuple):
        return made
    assert_integer_rows(made)
    return made.blocks, made.rest


def assert_integer_rows(flat):
    """The flat's rows are primitive integer vectors and each block carries
    the Q(x), B(x,y), Q(y) of its rows divided by their positive gcd."""
    l = flat.lattice
    for x, y, qx, bxy, qy in flat.int_blocks:
        raw = (eval_form(l, x, x), eval_form(l, x, y), eval_form(l, y, y))
        g = math.gcd(*map(int, raw))
        assert g > 0 and (qx, bxy, qy) == tuple(c / g for c in raw)
    rows = [row for x, y, *_ in flat.int_blocks for row in (x, y)] + list(flat.int_rest)
    assert all(isinstance(c, int) for row in rows for c in row)
    assert all(math.gcd(*row) == 1 for row in rows)


def assert_flat_new_matches_oracle(u_bases, n_basis, l):
    expected = flat_outcome(fraction_flat_new, u_bases, n_basis, l)
    assert flat_outcome(flat_new, u_bases, n_basis, l) == expected
    return expected


def assert_translate_matches_oracle(g, flat):
    # the rows the Fraction translate fed to flat_new: g applied to the
    # RREF bases of the flat's subspaces
    l = flat.lattice
    u_bases = [[oracle_apply(g, row) for row in b.basis] for b in flat.blocks]
    n_basis = [oracle_apply(g, row) for row in flat.rest.basis]
    image = translate(g, flat)
    assert_integer_rows(image)
    assert (image.blocks, image.rest) == assert_flat_new_matches_oracle(u_bases, n_basis, l)
    return image


def assert_family_flats_match_oracle(spec, flats):
    # the Fraction build_family: the k-th rotation power, built from k = 0,
    # applied to the standard flat's rows and certified by the Fraction oracle
    l = spec.lattice()
    base = standard_flat(spec.p, spec.q)
    assert (base.blocks, base.rest) == assert_flat_new_matches_oracle(
        [b.basis for b in base.blocks], base.rest.basis, l
    )
    for k, flat in enumerate(flats):
        rk = rotation_isometry(rotation_power(spec.rotation, k), spec.p, spec.q)
        u_bases = [[oracle_apply(rk, row) for row in b.basis] for b in base.blocks]
        n_basis = [oracle_apply(rk, row) for row in base.rest.basis]
        assert_integer_rows(flat)
        assert (flat.blocks, flat.rest) == assert_flat_new_matches_oracle(u_bases, n_basis, l)


def family_normals(spec):
    """The Fraction build_family's normals: the base normal, then each next
    one translated from the last by the generator rotation."""
    l = spec.lattice()
    r = rotation_isometry(spec.rotation, spec.p, spec.q)
    normals = [fraction_hyperplane_new(base_hyperplane_normal(spec), l)]
    for _ in range(spec.n):
        normals.append(fraction_translate(r, normals[-1]))
    return normals


def assert_family_matches(spec):
    flats, hypers = build_family(spec)
    assert_family_flats_match_oracle(spec, flats)
    for hyper, normal in zip(hypers, family_normals(spec), strict=True):
        for flat in flats:
            assert_matches_oracle(flat, hyper, normal)


@pytest.mark.parametrize(
    "p,q,n",
    [(2, 3, 5), (3, 3, 5), (3, 4, 5), (3, 4, 12), (3, 4, 24), (3, 4, 32), (2, 5, 8), (4, 5, 8)],
)
def test_searched_family_matches_oracle(p, q, n):
    m, t = search_parameters(n, DEFAULT_BOOST)
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
    flat = standard_flat(p, q)
    hyper, v = assert_hyperplane_new_matches_oracle(normal, l)
    assert_matches_oracle(flat, hyper, v)
    g = verify.random_isometry(l, random.Random(sum(normal)), reflections=3)
    moved = assert_translate_matches_oracle(g, flat)
    assert_matches_oracle(moved, translate(g, hyper), fraction_translate(g, v))


# B(x, .) of a primitive x need not be primitive here: gram.(1, -1, 1) is
# (-2, 2, -2). <e_1, e_2> is a hyperbolic block and <e_3> a negative rest.
NON_PRIMITIVE_PAIRING = quad_lattice([[0, 2, 0], [2, 0, 0], [0, 0, -2]])


@pytest.mark.parametrize(
    "normal",
    [(1, -1, 1), (F(-3, 2), F(3, 2), F(-3, 2)), (2, -1, 1), (1, 1, 2), (0, 1, 1), (0, 0, 1),
     (1, -2, 0), (1, 1, 1), (0, 1, 0), (0, 0, 0), (1, -1, 1, 0)],
)
def test_non_primitive_pairing_matches_oracle(normal):
    l = NON_PRIMITIVE_PAIRING
    flat = flat_new([[unit(0, 3), unit(1, 3)]], [unit(2, 3)], l)
    got = assert_hyperplane_new_matches_oracle(normal, l)
    if isinstance(got, type):
        assert got in (NonNegativeVector, AmbientMismatch)
        return
    hyper, v = got
    assert assert_hyperplane_new_matches_oracle(hyper.normal, l)[0] == hyper
    assert_matches_oracle(flat, hyper, v)
    rng = random.Random(sum(map(abs, hyper.normal)))
    for _ in range(3):
        g = verify.random_isometry(l, rng, reflections=3)
        moved = assert_translate_matches_oracle(g, flat)
        assert_matches_oracle(moved, translate(g, hyper), fraction_translate(g, v))


def test_non_primitive_pairing_lattice_reaches_every_verdict():
    l = NON_PRIMITIVE_PAIRING
    flat = flat_new([[unit(0, 3), unit(1, 3)]], [unit(2, 3)], l)
    tags = {
        intersect_flat_hyperplane(flat, hyperplane_new(normal, l)).tag
        for normal in ((1, -1, 1), (1, 1, 2), (0, 0, 1))
    }
    assert tags == {"Point", "Empty", "Degenerate"}


def test_random_strong_position_pairs_match_oracle():
    rng = random.Random(2024)
    bases = [standard_flat(p, q) for p, q in ((2, 3), (3, 4))]
    for i in range(100):
        flat, hyper = verify._random_strong_position_pair(bases[i % 2], rng)
        _, v = assert_hyperplane_new_matches_oracle(hyper.normal, flat.lattice)
        assert_matches_oracle(flat, hyper, v)
        assert general_position(flat, hyper, "strong")


def test_random_strong_position_pair_needs_a_rest():
    with pytest.raises(ValueError, match=r"nonzero rest, so q > p; got p=2, q=2$"):
        verify._random_strong_position_pair(standard_flat(2, 2), random.Random(1))


def test_random_small_normals_match_oracle():
    # small integer coordinates hit every mix of vanishing block and rest
    # components, in signatures from (1, 1) to (2, 5); zero, isotropic and
    # positive normals must be rejected as the Fraction oracle rejects them
    rng = random.Random(73)
    rejected = set()
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (2, 5)):
        l = standard_lattice("bpq", p, q)
        flat = standard_flat(p, q)
        g = verify.random_isometry(l, rng, reflections=2)
        moved = assert_translate_matches_oracle(g, flat)
        for _ in range(40):
            normal = tuple(rng.randint(-1, 1) for _ in range(l.rank))
            got = assert_hyperplane_new_matches_oracle(normal, l)
            if isinstance(got, type):
                rejected.add((got, any(normal)))
                continue
            hyper, v = got
            assert_matches_oracle(flat, hyper, v)
            assert_matches_oracle(moved, translate(g, hyper), fraction_translate(g, v))
    assert rejected == {(NonNegativeVector, False), (NonNegativeVector, True)}


def assert_block_terms(flat):
    """block_terms holds each block row's nonzero entries, and with them
    rebuilds int_blocks (its last entry, the block's isotropic lines, is
    checked in tests/test_cut_signs.py)."""
    n = flat.lattice.rank
    assert all(v for xt, yt, *_ in flat.block_terms for _, v in xt + yt)
    rebuilt = tuple(
        (*(tuple(dict(terms).get(j, 0) for j in range(n)) for terms in (xt, yt)), *triple)
        for xt, yt, *triple, _ in flat.block_terms
    )
    assert rebuilt == flat.int_blocks


def test_block_terms_of_sparse_and_dense_flats_match_oracle():
    # a family's block rows have one or two nonzero entries; under a seeded
    # random isometry of B(3,4) every entry of every row is nonzero, so the
    # verdicts read full term lists, against the oracle on the moved normals
    # (Point diagonal) and on the unmoved ones
    spec = arrangement_spec(3, 4, 4, DEFAULT_BOOST, *search_parameters(4, DEFAULT_BOOST))
    l = spec.lattice()
    flats, hypers = build_family(spec)
    normals = family_normals(spec)
    for flat in flats:
        assert_block_terms(flat)
        assert all(len(xt) <= 2 and len(yt) <= 2 for xt, yt, *_ in flat.block_terms)
    rng = random.Random(97)
    tags, dense = set(), 0
    while dense < 2:
        g = verify.random_isometry(l, rng, reflections=3)
        moved = [translate(g, flat) for flat in flats]
        rows = [row for f in moved for x, y, *_ in f.int_blocks for row in (x, y, *f.int_rest)]
        if not all(map(all, rows)):
            continue
        dense += 1
        for flat in moved:
            assert_block_terms(flat)
            assert all(len(xt) == len(yt) == l.rank for xt, yt, *_ in flat.block_terms)
            for hyper, normal in zip(hypers, normals):
                assert_matches_oracle(flat, translate(g, hyper), fraction_translate(g, normal))
                assert_matches_oracle(flat, hyper, normal)
                tags.add(intersect_flat_hyperplane(flat, translate(g, hyper)).tag)
    assert tags == {"Point", "Empty"}


# ------------------------------------------------------- the flat certificate


def unit(i, n):
    return [1 if j == i else 0 for j in range(n)]


B22 = standard_lattice("bpq", 2, 2)
B23 = standard_lattice("bpq", 2, 3)


@pytest.mark.parametrize(
    "u_bases,n_basis,l,error",
    [
        # the error cases of tests/test_grassmann.py
        ([[unit(0, 4), unit(1, 4)], [unit(2, 4), unit(3, 4)]], [], B22, WrongInertia),
        ([[unit(0, 5), unit(2, 5)], [unit(0, 5), unit(3, 5)]], [unit(4, 5)], B23, NotOrthogonal),
        ([[unit(0, 4), unit(2, 4)]], [], B22, NotSpanning),
        # no block, a row of the wrong length
        ([], [unit(0, 4)], B22, ValueError),
        ([[unit(0, 4), unit(2, 4)], [unit(1, 5), unit(3, 5)]], [], B22, AmbientMismatch),
        # degenerate blocks: an isotropic line plus an orthogonal vector, a
        # totally isotropic plane
        ([[[1, 0, 1, 0, 0], unit(1, 5)], [[0, 1, 0, 1, 0], unit(4, 5)]], [unit(3, 5)], B23,
         WrongInertia),
        ([[[1, 0, 1, 0], [0, 1, 0, 1]], [unit(0, 4), unit(3, 4)]], [], B22, WrongInertia),
        # a rest that is not negative definite, with everything else in order
        ([[unit(0, 5), unit(2, 5)]], [unit(1, 5), unit(3, 5), unit(4, 5)], B23, WrongInertia),
        # a degenerate rest
        ([[unit(0, 5), unit(2, 5)], [unit(1, 5), unit(3, 5)]], [[0, 1, 0, 1, 0]], B23,
         WrongInertia),
    ],
)
def test_flat_new_error_cases_match_oracle(u_bases, n_basis, l, error):
    assert assert_flat_new_matches_oracle(u_bases, n_basis, l) is error


FLAT_INPUT_KINDS = (
    "valid", "mixed", "rational", "dependent", "repeated", "zero", "one_row", "three_row",
    "same_sign", "degenerate", "positive_rest", "non_orthogonal", "sheared_block",
    "non_spanning", "dropped_block", "swapped", "random",
)


def random_flat_input(rng, kind):
    """Block and rest rows of a flat over a small B(p, q), moved by a random
    isometry, then broken (or not) in the way kind names."""
    p = rng.randint(1, 3)
    q = rng.randint(p, 4)
    n = p + q
    l = standard_lattice("bpq", p, q)
    g = verify.random_isometry(l, rng, reflections=rng.randint(0, 2))

    def image(v):
        return list(oracle_apply(g, v))

    def small():
        return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    def combine(rows):
        coeffs = [small() for _ in rows]
        return [sum((c * r[i] for c, r in zip(coeffs, rows)), F(0)) for i in range(n)]

    def scaled(row):
        c = small()
        return [c * x for x in row]

    e = [image(unit(i, n)) for i in range(p)]
    f = [image(unit(p + j, n)) for j in range(q)]
    blocks = [[e[i], f[i]] for i in range(p)]
    rest = f[p:]
    parts = blocks + [rest]
    nonempty = [part for part in parts if part]
    if kind == "mixed":  # another basis of each block, possibly a singular one
        blocks = [[combine(b), combine(b)] for b in blocks]
    elif kind == "rational":
        blocks = [[scaled(row) for row in b] for b in blocks]
        rest = [scaled(row) for row in rest]
    elif kind == "dependent":
        part = rng.choice(nonempty)
        part.append(combine(part))
    elif kind == "repeated":
        part = rng.choice(nonempty)
        part.append(list(rng.choice(part)))
    elif kind == "zero":
        rng.choice(parts).append([0] * n)
    elif kind == "one_row":
        rng.choice(blocks).pop(rng.randrange(2))
    elif kind == "three_row":
        block = rng.choice(blocks)
        donor = rest or [row for b in blocks if b is not block for row in b] or [combine(e + f)]
        block.append(donor.pop())
    elif kind == "same_sign":
        i = rng.randrange(p)
        blocks[i] = [f[i], f[-1]] if q > 1 else [e[i], e[-1]]
    elif kind == "degenerate":  # an isotropic line plus an orthogonal vector
        i = rng.randrange(p)
        isotropic = [a + b for a, b in zip(e[i], f[i])]
        others = [v for k, v in enumerate(e + f) if k not in (i, p + i)]
        if p > 1 and rng.random() < 0.5:  # a totally isotropic plane
            j = (i + 1) % p
            others = [[a + b for a, b in zip(e[j], f[j])]]
        blocks[i] = [isotropic, rng.choice(others or [isotropic])]
    elif kind == "positive_rest":
        rest.append(e[rng.randrange(p)])
        if rest[:-1]:
            rest.pop(0)
    elif kind == "non_orthogonal" and rest:
        j = rng.randrange(len(rest))
        rest[j] = [a + small() * b for a, b in zip(rest[j], rng.choice(rng.choice(blocks)))]
    elif kind == "sheared_block":
        i = rng.randrange(p)
        other = rng.choice([row for part in parts for row in part if part is not blocks[i]] or e)
        blocks[i][1] = [a + small() * b for a, b in zip(blocks[i][1], other)]
    elif kind == "non_spanning":
        (rest or blocks).pop()
    elif kind == "dropped_block":
        blocks.pop(rng.randrange(p))
    elif kind == "swapped" and q > p:  # block <e_i, f_j> and f_i in the rest
        i, j = rng.randrange(p), rng.randrange(q - p)
        blocks[i][1], rest[j] = rest[j], blocks[i][1]
    elif kind == "random":
        shape = [rng.randint(0, 3) for _ in range(rng.randint(0, p + 1))]
        blocks = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)] for k in shape]
        rest = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, q))]
    return blocks, rest, l


def test_random_flat_inputs_match_oracle():
    # 2040 seeded inputs, 120 of each kind: every kind must both reach the
    # certificate and, across the run, give both accepts and rejects
    rng = random.Random(409)
    outcomes = {kind: set() for kind in FLAT_INPUT_KINDS}
    for _ in range(120):
        for kind in FLAT_INPUT_KINDS:
            blocks, rest, l = random_flat_input(rng, kind)
            got = assert_flat_new_matches_oracle(blocks, rest, l)
            outcomes[kind].add(got if isinstance(got, type) else "accepted")
    accepted = {kind for kind, seen in outcomes.items() if "accepted" in seen}
    assert accepted >= {"valid", "mixed", "rational", "dependent", "repeated", "zero", "swapped"}
    for kind in ("one_row", "three_row", "same_sign", "degenerate", "positive_rest"):
        assert WrongInertia in outcomes[kind], kind
    assert NotOrthogonal in outcomes["non_orthogonal"] | outcomes["sheared_block"]
    assert NotSpanning in outcomes["non_spanning"] | outcomes["dropped_block"]
    assert ValueError in outcomes["dropped_block"]
    assert len(set().union(*outcomes.values())) == 5


def test_translated_flat_equals_flat_new_of_its_subspaces():
    # translate keeps the images of the integer rows, flat_new the primitive
    # RREF rows: different rows, the same flat
    l = standard_lattice("bpq", 2, 3)
    flat = standard_flat(2, 3)
    g = verify.random_isometry(l, random.Random(5), reflections=3)
    image = translate(g, flat)
    rebuilt = flat_new([b.basis for b in image.blocks], image.rest.basis, l)
    assert image.int_blocks != rebuilt.int_blocks
    assert image == rebuilt
    assert hash(image) == hash(rebuilt)
    swapped = flat_new([b.basis for b in reversed(image.blocks)], image.rest.basis, l)
    assert swapped != image
    assert image != flat
