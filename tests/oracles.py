"""Fraction oracles for the library's integer paths.

These are the computations the library made over Fraction before they ran
in integers: the symmetric elimination, the row elimination with the
kernel, span, intersection and complement on top of it, the matrix
inverse, the rotation walk with the parameter search on top of it, the
restricted inertia of a subspace, the image of a vector under an
isometry, the clearing of rational rows through frac and the primitive
vector on a line by a generator. Tests compare the integer paths against
them. rotation_power,
the Fraction view of the integer rotation walk, lives here too: only tests
read powers of a rotation as Fractions. So does the product form of a cut
line's Q(w), which the verdicts read as a sign without forming it. So
does the sign layer over Fraction coordinates: stereographic points, the
admissibility checks, the seeded sampler and the diagonal-summand action.
So does verify's inequality check as it ran before it kept one flat family
per rotation: a whole family per parameter combo, read at H_0. So does a
flat's translate as it ran before it carried the certificate through the
isometry: the image rows re-certified on their integer Gram matrix. So
does build_family as it ran before it read the family off the Gaussian
walk: rotation_isometry, a certified matrix, translating each flat and
hyperplane from the last. So does the spinor command as it ran before the
Cartan-Dieudonne walk certified the form: the Gram check on every matrix,
then the walk, its spinor class the product of its own factors' Qs. So does the congruence
command as it ran before construction's walk certified the form: the Gram
check first, then integrality, the determinant and the residues. Both read
--matrix into a RawMatrix, num/den as a hand-built Isometry held it before
construction refused a non-isometry. So does the root join as it ran before it built roots by concatenation: the
chosen lists of every leaf kept, then expanded by itertools.product.
So does the triangular-support guard the root search ran before it read
its square forms off the lattice's orthogonal basis.
So does the symmetric elimination as it ran before the transform rode
along as extra columns: a side matrix t, updated beside the Gram matrix.
So do the dense Fraction matrix helpers the tests build with (as_matrix,
identity_matrix and transpose), which the library dropped once the sign
layer ran in integers. So do the stabilizer's sign patterns as they were
found before only the admissible ones were built: a filter over all 2^p
candidates. The determinant is checked against a Fraction elimination.
So do the spinor check's draws as they ran inside its loop: each vector
kept when its ray's Q is nonzero, 100 single vectors, then 200 pairs of
lists whose lengths are drawn just before their vectors.
"""

import math
import random
from fractions import Fraction
from itertools import chain, islice, product
from operator import itemgetter, mul
from typing import NamedTuple

from geocycle.arrangement import (
    MAX_BOOST_POWER,
    TANGENT_SCAN,
    ArrangementSpec,
    InequalityDetail,
    RotationPair,
    _rotation_powers,
    base_hyperplane_normal,
    boost_power,
    build_family,
    inequality_details,
    rotation_from_tangent,
    standard_flat,
)
from geocycle.cli import _parse_matrix
from geocycle.errors import (
    CertificateFailed,
    DetMinusOne,
    FormNotPreserved,
    InadmissibleV,
    NonIntegralMatrix,
    NotSquare,
    SearchExhausted,
)
from geocycle.grassmann import (
    _block_lines,
    _certified_flat,
    _rest_clause_holds,
    flat_new,
    hyperplane_new,
    intersect_flat_hyperplane,
    translate,
)
from geocycle.isometries import (
    _identity,
    _normalized,
    _apply_update,
    _reflection_update,
    isometry_from_matrix,
    square_class,
)
from geocycle.lattices import cleared, primitive, ray, standard_lattice
from geocycle.linalg import (
    ONE,
    ZERO,
    as_vector,
    frac,
    inertia,
    mat_mul,
    times_terms,
)


def as_matrix(rows):
    m = tuple(as_vector(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity_matrix(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(r, v) if x and y), ZERO) for r in m)


def oracle_apply(g, v):
    """The image g.v of a rational vector under an isometry, as Fractions:
    v cleared to an integer row over s, mapped through g.num over g.den * s."""
    row, s = cleared(v, g.lattice)
    den = g.den * s
    return tuple(Fraction(sum(map(mul, r, row)), den) for r in g.num)


def frac_cleared(rows):
    """(s.rows, s) for rows of ints, Fractions or strings, every entry
    coerced by frac to a Fraction and s the lcm of their denominators."""
    rows = [list(row) for row in rows]
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    rows = [[frac(x) for x in row] for row in rows]
    s = math.lcm(*(x.denominator for x in chain.from_iterable(rows)))
    return [[x.numerator * (s // x.denominator) for x in row] for row in rows], s


def generator_primitive(x):
    """The primitive integer vector on x's line, first nonzero entry
    positive, found by a generator; the zero vector stays zero."""
    g = math.gcd(*x)
    if g and next(c for c in x if c) < 0:
        g = -g
    return tuple(c // g for c in x) if g else tuple(x)


def fraction_rref(m):
    """Reduced row echelon form over Fraction with zero rows dropped:
    (rows, pivot_columns), leading entries 1 and their columns cleared."""
    rows = [list(r) for r in as_matrix(m)]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def fraction_det(m):
    """The determinant by Gaussian elimination over Fraction: the product of
    the pivots, negated at each row swap, and 0 at a column with no pivot."""
    rows = [list(r) for r in as_matrix(m)]
    out = ONE
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return out


def fraction_kernel(m, ncols):
    """Basis of {x : m.x = 0}: per free column f, x_f = 1 and x_c = -rref[r][f]."""
    reduced, pivots = fraction_rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def fraction_intersect(a, b):
    """The RREF basis of the meet of two RREF bases in the same ambient,
    through the Fraction kernel of [A^T | -B^T]."""
    if not a or not b:
        return ()
    stacked = [list(ca) + [-x for x in cb] for ca, cb in zip(zip(*a), zip(*b))]
    columns = transpose(a)
    meet = [mat_vec(columns, u[: len(a)]) for u in fraction_kernel(stacked, len(a) + len(b))]
    return fraction_rref(meet)[0]


def fraction_perp(a, gram):
    """The RREF basis of the complement of an RREF basis under gram."""
    return fraction_rref(fraction_kernel(mat_mul(a, gram), len(gram)))[0]


def fraction_diagonalize_symmetric(m):
    """Congruence-diagonalize a symmetric matrix over Fraction.

    Returns (d, t) with t.m.t^T = diag(d). A zero pivot with a nonzero
    diagonal entry further down is repaired by swapping; when the whole
    remaining diagonal vanishes, the row+column addition trick (add row j
    and column j onto row/column i where a[i][j] != 0) manufactures the
    pivot 2*a[i][j], keeping every step an exact congruence.
    """
    n = len(m)
    a = [[frac(x) for x in row] for row in m]
    t = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    def add_row_col(i, j, f):
        for c in range(n):
            a[i][c] += f * a[j][c]
        for r in range(n):
            a[r][i] += f * a[r][j]
        for c in range(n):
            t[i][c] += f * t[j][c]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        t[i], t[j] = t[j], t[i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                    None,
                )
                if pair is None:
                    break  # remaining block is identically zero
                i, j = pair
                add_row_col(i, j, ONE)
                if i != k:
                    swap(k, i)
        d = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_row_col(i, k, -a[i][k] / d)
    return tuple(a[k][k] for k in range(n)), tuple(tuple(row) for row in t)


def fraction_inertia(m):
    diag, _ = fraction_diagonalize_symmetric(m)
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    return plus, minus, len(diag) - plus - minus


def side_matrix_congruence(rows):
    """Symmetric Bareiss elimination with the transform as a side matrix:
    (pivots, t), t integer with t.a.t^T = diag(p_{k-1} p_k) (p_{-1} = 1)
    and 0 past the rank, every row operation on a repeated on t."""
    a = [list(r) for r in rows]
    n = len(a)
    t = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    pivots = []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][i]), None)
            if i is None:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None
                )
                if pair is None:
                    break  # the rest is identically zero
                i, j = pair
                for row in a[k:]:
                    row[i] += row[j]
                a[i][k:] = [x + y for x, y in zip(a[i][k:], a[j][k:])]
                t[i] = [x + y for x, y in zip(t[i], t[j])]
            if i != k:
                a[k], a[i] = a[i], a[k]
                for row in a[k:]:
                    row[k], row[i] = row[i], row[k]
                t[k], t[i] = t[i], t[k]
        p = a[k][k]
        pivot_row = a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            if f:
                a[i][k + 1:] = [(p * x - f * y) // prev for x, y in zip(a[i][k + 1:], pivot_row)]
                t[i] = [(p * x - f * y) // prev for x, y in zip(t[i], t[k])]
            elif p != prev:  # a row clear of the pivot column is only rescaled
                a[i][k + 1:] = [p * x // prev for x in a[i][k + 1:]]
                t[i] = [p * x // prev for x in t[i]]
        pivots.append(p)
        prev = p
    return pivots, t


def oracle_matrix_inverse(m):
    """The inverse of a square rational matrix, by RREF of [m | I]."""
    m = as_matrix(m)
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotSquare("cannot invert a non-square matrix")
    aug = tuple(row + ident for row, ident in zip(m, identity_matrix(n)))
    reduced, pivots = fraction_rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def inverse_square_forms(gram):
    """The square forms read off the inverse of the congruence transform:
    form k is column k of t^{-1} cleared of denominators, with weight
    d_k / mult^2, all weights scaled by the lcm of their denominators."""
    diag, t = fraction_diagonalize_symmetric(gram)
    tinv = oracle_matrix_inverse(t)
    n = len(gram)
    weights = []
    icoeffs = []
    for k in range(n):
        col = [tinv[j][k] for j in range(n)]
        mult = math.lcm(*(c.denominator for c in col))
        icoeffs.append([int(c * mult) for c in col])
        weights.append(diag[k] / (mult * mult))
    scale = math.lcm(*(w.denominator for w in weights))
    return [int(w * scale) for w in weights], icoeffs, scale


def is_lower_unitriangular_support(icoeffs):
    """Form k involves only coordinates k..n-1, with a positive entry at k:
    the shape the definite root search steps down. The enumerator dropped
    this guard once its forms came off the lattice's orthogonal basis,
    where every definite block has that shape."""
    n = len(icoeffs)
    return all(
        icoeffs[k][k] > 0 and all(icoeffs[k][j] == 0 for j in range(k))
        for k in range(n)
    )


def rotation_power(r, k):
    """r^k as a RotationPair of Fractions, read off the library's integer walk."""
    if k < 0:
        raise ValueError("rotation power wants a nonnegative exponent")
    c, s, d = r.cleared
    return RotationPair(*(Fraction(x, d**k) for x in next(islice(_rotation_powers(c, s), k, None))))


def rotation_isometry(pair, p, q):
    """The isometry of B(p,q) rotating <e_1, e_2> and <f_1, f_2> by the same pair."""
    if p < 2 or q < 2:
        raise ValueError("the rotation mixes two positive and two negative directions")
    l = standard_lattice("bpq", p, q)
    n = p + q
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for base in (0, p):  # e-block then f-block
        rows[base][base:base + 2] = pair.c, -pair.s
        rows[base + 1][base:base + 2] = pair.s, pair.c
    return isometry_from_matrix(rows, l)


def translated_family(spec):
    """build_family as it ran before it read the family off the Gaussian
    walk: the certified base pair, then each next flat and hyperplane
    translated from the last by the certified generator rotation."""
    r = rotation_isometry(spec.rotation, spec.p, spec.q)
    flats = [standard_flat(spec.p, spec.q)]
    hypers = [hyperplane_new(base_hyperplane_normal(spec), spec.lattice())]
    for _ in range(spec.n):
        flats.append(translate(r, flats[-1]))
        hypers.append(translate(r, hypers[-1]))
    return flats, hypers


def flat_new_standard_flat(p, q):
    """standard_flat as it was built before its closed form: the unit rows
    certified by flat_new, the rows made before the lattice's rank check."""
    if p > q:
        raise ValueError(f"a standard flat needs p <= q, got p={p}, q={q}")
    e = [tuple(int(i == j) for j in range(p + q)) for i in range(p + q)]
    return flat_new(zip(e[:p], e[p:]), e[2 * p:], standard_lattice("bpq", p, q))


def fraction_inequality_details(spec, n):
    """inequality_details as it ran before it shared the search's integer
    test: the boost power's Fraction window, compared with each tangent as
    a Fraction."""
    bp = boost_power(spec.boost, spec.m)
    lower, upper = -(bp.a + bp.b), -(bp.a - bp.b)
    powers = islice(_rotation_powers(*spec.rotation.cleared[:2]), 1, n + 1)
    tangents = (Fraction(im, re) if re else None for re, im in powers)
    return [
        InequalityDetail(t is not None and lower <= t <= upper, t is None, t, lower, upper)
        for t in tangents
    ]


def fraction_rotation_powers(r):
    """(c_k, s_k) of r^k for k = 0, 1, 2, ..., one Fraction product a step."""
    c, s = Fraction(1), Fraction(0)
    while True:
        yield c, s
        c, s = c * r.c - s * r.s, s * r.c + c * r.s


def fraction_negative_tangents(rotation, limit):
    """tan(k*angle) = s_k/c_k for k = 1, 2, ... while it stays negative."""
    out = []
    for c, s in islice(fraction_rotation_powers(rotation), 1, limit + 1):
        if c == 0 or s / c >= 0:
            break
        out.append(s / c)
    return out


def fraction_search_parameters(n, boost):
    """The parameter search with its tangents compared as Fractions."""
    if n < 1:
        raise ValueError("family size n must be at least 1")
    tangent_cache = {t: fraction_negative_tangents(rotation_from_tangent(t), n) for t in TANGENT_SCAN}
    for m in range(1, MAX_BOOST_POWER + 1):
        bp = boost_power(boost, m)
        lower, upper = -(bp.a + bp.b), -(bp.a - bp.b)
        for t in TANGENT_SCAN:
            tangents = tangent_cache[t]
            if len(tangents) < n:
                continue
            if all(lower <= tan <= upper for tan in tangents[:n]):
                return m, t
    raise SearchExhausted(f"no (m <= {MAX_BOOST_POWER}, t) in the scan grid works for n = {n}")


def mat_mul_restricted_definiteness(a, lattice):
    """Inertia of the form restricted to a subspace, from the Fraction
    product basis . gram . basis^T of its RREF rows."""
    return inertia(mat_mul(mat_mul(a.basis, lattice.gram), transpose(a.basis)))


def product_form_cut_lines(flat, hyper):
    """Per block <x, y> of the flat, None when a = B(v,x) and b = B(v,y)
    both vanish, else (a, b, Q(w)) with Q(w) = b^2 Q(x) - 2ab B(x,y) +
    a^2 Q(y) formed in full over the dense rows: the block-line kernel as it
    was before the verdicts were read as signs."""
    phi = hyper.functional
    out = []
    for x, y, qx, bxy, qy in flat.int_blocks:
        a, b = sum(map(mul, phi, x)), sum(map(mul, phi, y))
        out.append((a, b, b * b * qx - 2 * a * b * bxy + a * a * qy) if a or b else None)
    return out


def product_form_tag(flat, hyper):
    """The verdict's tag from product_form_cut_lines: Degenerate at any
    vanishing block, else Point iff every Q(w) > 0."""
    lines = product_form_cut_lines(flat, hyper)
    if None in lines:
        return "Degenerate"
    return "Point" if all(q > 0 for *_, q in lines) else "Empty"


def fraction_admissible_v(p, coords):
    """The coordinates of admissible_v(p, coords), checked over Fractions:
    each failed condition raises the library's InadmissibleV message."""
    v = as_vector(coords)
    q = len(v)
    if not 1 <= p <= q:
        raise InadmissibleV(f"need 1 <= p <= q, got p={p}, q={q}")
    if sum(x * x for x in v) != 1:
        raise InadmissibleV("coordinates must have sum of squares exactly 1")
    for j in range(p):
        if v[j] == 0:
            raise InadmissibleV(f"coordinate {j + 1} vanishes but lies in the first p slots")
    for j in range(p, q):
        if v[j] != 0:
            raise InadmissibleV(f"coordinate {j + 1} must vanish beyond the first p slots")
    return v


def fraction_stereographic_unit_vector(u):
    """(2u_1, ..., 2u_{d-1}, 1 - |u|^2) / (1 + |u|^2) over Fractions."""
    us = as_vector(u)
    norm = sum((x * x for x in us), ZERO)
    den = 1 + norm
    return tuple(2 * x / den for x in us) + ((1 - norm) / den,)


def fraction_random_admissible_v(p, q, rng):
    """The coordinates random_admissible_v(p, q, rng) draws, with the same
    calls on rng in the same order: randint(-9, 9) then randint(1, 9) per
    coordinate of u, the zero-coordinate rejection, then random() < 0.5 for
    the sign flip."""
    while True:
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p - 1)]
        point = fraction_stereographic_unit_vector(u)
        if any(x == 0 for x in point):
            continue
        if rng.random() < 0.5:
            point = tuple(-x for x in point)
        return fraction_admissible_v(p, point + (ZERO,) * (q - p))


def fraction_pi_k_matrix(p, coords):
    """pi_k_matrix over the Fraction coordinates v: entry (k, k) is
    diamond_kk s_k / v_k with diamond diag(1, ..., 1, -1) and s = v -
    2(v.v) v, every other entry Fraction(0)."""
    vv = sum(x * x for x in coords)
    s = [x - 2 * vv * x for x in coords[:p]]
    diamond = [ONE] * (p - 1) + [-ONE]
    return tuple(
        tuple(diamond[k] * s[k] / coords[k] if i == k else Fraction(0) for i in range(p))
        for k in range(p)
    )


def per_combo_inequality_detail(grid):
    """check_inequality_implies_empty's detail with a whole family built
    for every (boost, m, t) of grid and each F_k cut with that family's H_0."""
    combos = hits = violations = 0
    for boost, m, t in grid:
        combos += 1
        spec = ArrangementSpec(2, 3, boost, m, rotation_from_tangent(t), 12)
        flats, hypers = build_family(spec)
        for k, detail in enumerate(inequality_details(spec, 12), start=1):
            if detail.holds:
                hits += 1
                if intersect_flat_hyperplane(flats[k], hypers[0]).tag != "Empty":
                    violations += 1
    return {"combos": combos, "inequality_hits": hits, "violations": violations}


def filtered_stabilizer_sign_patterns(flat, hyper):
    """grassmann.stabilizer_sign_patterns as it ran before it built only the
    admissible patterns: all 2^p candidates, kept when every flipped block
    is orthogonal to the normal, or when the rest clause fails and every
    unflipped block is."""
    orthogonal = [pair is None for pair in _block_lines(flat, hyper)[0]]
    no_rest = not _rest_clause_holds(flat, hyper)
    return [
        signs
        for signs in product((1, -1), repeat=flat.block_count)
        if all(o for o, s in zip(orthogonal, signs) if s == -1)
        or (no_rest and all(o for o, s in zip(orthogonal, signs) if s == 1))
    ]


def recertified_translate(g, flat):
    """The image of a flat under g, each row's image taken primitive and
    the whole image certified again from its integer Gram matrix by
    _certified_flat."""
    def image(x):
        return primitive([sum(map(mul, row, x)) for row in g.num])

    parts = [[image(x), image(y)] for x, y, *_ in flat.int_blocks]
    return _certified_flat(parts + [[image(r) for r in flat.int_rest]], flat.lattice)


class RawMatrix(NamedTuple):
    """num/den over a lattice, not yet known to preserve its form: the
    fields of an Isometry, which the oracles below read without making one."""

    num: tuple
    den: int
    lattice: object


def raw_matrix(m, l):
    """The rows m cleared of denominators by frac_cleared, refused as an
    Isometry refuses a matrix of the wrong shape."""
    num, den = frac_cleared(m)
    n = l.rank
    if len(num) != n or any(len(row) != n for row in num):
        raise NotSquare(f"expected a {n}x{n} matrix")
    return RawMatrix(tuple(map(tuple, num)), den, l)


def gram_preserves_form(g):
    """The Gram check num^T.gram.num = den^2.gram with den != 0, summed
    entry by entry from g.num, g.den and g.lattice.gram: gram.num first,
    then num^T times it."""
    gram, cols = g.lattice.gram, list(zip(*g.num))
    gram_num = [[sum(map(mul, row, col)) for col in cols] for row in gram]
    d2 = g.den * g.den
    return g.den != 0 and [
        [sum(map(mul, col, other)) for other in zip(*gram_num)] for col in cols
    ] == [[d2 * x for x in row] for row in gram]


def reflect(x_ray, num, den):
    """R_x.(num/den) for the reflection along a ray (x, gram.x, Q(x)):
    the package's rank-one update in integers, as its walk applies it."""
    q, c = _reflection_update(x_ray, num)
    return _apply_update(x_ray[0], q, c, num, den)


def eager_cartan_dieudonne(g):
    """cartan_dieudonne as it ran before its walk certified the form: the
    Gram check first (FormNotPreserved), then the walk to the identity with
    no entry cap and no early stop, over (num, den) in lowest terms with
    den > 0, so that the identity written as (2I, 2) or (-I, -1) is the
    empty product."""
    if not gram_preserves_form(g):
        raise FormNotPreserved("matrix does not preserve the bilinear form")
    l = g.lattice
    num, den = _normalized(g.num, g.den)
    vectors = []
    for b_ray, terms in l.orthogonal_rays:
        image = times_terms(num, terms)
        w = image[:]
        for j, v in terms:
            w[j] -= den * v
        if not any(w):
            continue
        line = ray(w, l)
        if line[2] == 0:
            # q(u+b) = 4 q(b) != 0 when q(u-b) = 0; R^{u+b} sends u to -b
            for j, v in terms:
                image[j] += den * v
            plus = ray(image, l)
            vectors.append(plus[0])
            num, den = reflect(plus, num, den)
            line = b_ray
        vectors.append(line[0])
        num, den = reflect(line, num, den)
    if den != 1 or num != _identity(l.rank):
        raise CertificateFailed("reflection factorization did not reach the identity")
    if len(vectors) > 2 * l.rank:
        raise CertificateFailed(f"{len(vectors)} reflections exceed 2 * rank = {2 * l.rank}")
    return vectors


def factorization_spinor_norm(vectors, l):
    """The square class of the product of Q(x) over reflection vectors x,
    each Q read off the primitive integer vector on x's line."""
    return square_class(Fraction(math.prod(ray(cleared(x, l)[0], l)[2] for x in vectors)))


def eager_cmd_spinor(args):
    """The spinor command's handler as it ran before: the Gram check, then
    the eager walk, whose factors give the class."""
    l = standard_lattice(args.lattice, args.p, args.q)
    reflections = eager_cartan_dieudonne(raw_matrix(_parse_matrix(args.matrix), l))
    payload = dict(factorization_spinor_norm(reflections, l).to_dict())
    payload["reflections"] = len(reflections)
    return "ok", payload, None


def eager_cmd_congruence(args):
    """The congruence command's handler as it ran before construction's
    walk: the Gram check first (FormNotPreserved), then the modulus, then
    integrality, det +1 by Fraction elimination and every residue of
    g - 1 mod the modulus."""
    l = standard_lattice(args.lattice, args.p, args.q)
    g = raw_matrix(_parse_matrix(args.matrix), l)
    if not gram_preserves_form(g):
        raise FormNotPreserved("matrix does not preserve the bilinear form")
    if args.modulus < 1:
        raise ValueError("modulus must be a positive integer")
    if any(a % g.den for row in g.num for a in row):
        raise NonIntegralMatrix("congruence membership needs integer entries")
    num = [[a // g.den for a in row] for row in g.num]
    if fraction_det(num) != 1:
        raise DetMinusOne("congruence subgroups sit inside the determinant-one group")
    member = all((a - (i == j)) % args.modulus == 0
                 for i, row in enumerate(num) for j, a in enumerate(row))
    return "ok", {"modulus": args.modulus, "member": member}, None


def product_join(blocks, tables, target, n, budget):
    """obstructions._join as it ran before it concatenated roots at the
    leaves: the same search and charges, every leaf's chosen lists kept,
    then each root flattened from one itertools.product choice."""
    suffix = [{0}]
    for table in reversed(tables):
        budget.spend(len(table) * len(suffix[0]))
        suffix.insert(0, {v + s for v in table for s in suffix[0]})
    products = []
    chosen = []

    def descend(k, remaining):
        if k == len(tables):
            budget.spend(math.prod(len(vs) for vs in chosen))
            products.append(list(chosen))
            return
        for v, vs in tables[k].items():
            if remaining - v in suffix[k + 1]:
                budget.spend()
                chosen.append(vs)
                descend(k + 1, remaining - v)
                chosen.pop()

    if target in suffix[0]:
        descend(0, target)
    order = [i for block in blocks for i in block]
    scatter = None
    if order != list(range(n)):
        scatter = itemgetter(*sorted(range(n), key=order.__getitem__))
    found = []
    for lists in products:
        for parts in product(*lists):
            flat = tuple(chain.from_iterable(parts))
            found.append(scatter(flat) if scatter else flat)
    found.sort()
    return found


def looped_spinor_draws(seed):
    """The vectors check_spinor_norm drew as it ran its cases in one loop:
    a vector in [-5, 5]^5 kept when ray(v)'s Q is nonzero, 100 of them for
    the reflection signs, then per product g's list and h's list, each
    after its own randint(1, 3)."""
    rng = random.Random(seed)
    l = standard_lattice("bpq", 2, 3)

    def anisotropic():
        while True:
            v = tuple(rng.randint(-5, 5) for _ in range(l.rank))
            if ray(v, l)[2] != 0:
                return v

    singles = [anisotropic() for _ in range(100)]
    pairs = []
    for _ in range(200):
        g = [anisotropic() for _ in range(rng.randint(1, 3))]
        h = [anisotropic() for _ in range(rng.randint(1, 3))]
        pairs.append((g, h))
    return singles, pairs
