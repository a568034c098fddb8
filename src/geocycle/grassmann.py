"""The Grassmannian model of the symmetric space of an indefinite form.

Points are positive-definite p-planes. A *flat* is cut out by an orthogonal
splitting into p hyperbolic planes plus a negative-definite rest; a
*hyperplane* is the locus of positive p-planes inside the orthogonal
complement of a fixed negative vector. Everything here is exact: the
flat/hyperplane intersection criterion returns certified verdicts.

The criterion has a closed form. The complement v^perp of the normal v meets
a hyperbolic block <x, y> in the line through w = B(v,y)*x - B(v,x)*y (the
whole block when B(v,x) = B(v,y) = 0), and the line's sign is that of
Q(w) = b^2 Q(x) - 2ab B(x,y) + a^2 Q(y) with a = B(v,x), b = B(v,y). Lines
and normals are projective, so a flat is held as the primitive integer rows
of its blocks and its rest, certified once on their integer Gram matrix
(a translate carries the certificate through the isometry), and a
hyperplane as the primitive integer vector on its normal line: every
verdict is integer arithmetic. Scaling v by c scales a, b and w by c and
Q(w) by c^2, so no verdict depends on the vector chosen on the line; a block
keeps (Q(x), B(x,y), Q(y)) over its positive gcd, and w is formed only for a
Point cell. The RREF subspaces of a flat are derived on demand.

A verdict reads Q(w) only for its sign, and a and b reach thousands of bits
in a large family, so Q(w) is not formed on a *split* block, one whose
discriminant B(x,y)^2 - Q(x)Q(y) (positive, by the certificate) is a square.
Such a block has two rational isotropic lines u, u'; w lies on the line of
B(v,u')*u - B(v,u)*u', so Q(w) has the sign of -B(u,u') B(v,u) B(v,u'). With
u' oriented so that B(u,u') < 0 that is sign B(v,u) * sign B(v,u'), and
B(v, alpha*x + beta*y) = alpha*a + beta*b costs two small-by-large products.
A flat holds each block's (alpha, beta, alpha', beta') once, at the end of
its `block_terms`; the searched triple (1, 0, -1) has the lines x + y and
y - x, so its verdict is sign(b^2 - a^2). A non-split block keeps the
product form.

A matrix or row that is multiplied many times is read through its nonzero
terms only: a flat's `block_terms` are its block rows as (column, value)
pairs, an isometry's `num_terms` and a lattice's `gram_terms` are the same
for their matrices' rows. The rotation
of a family moves only e1, e2, f1 and f2, so a block row has at most two
nonzero coordinates at any rank, and a B(p,q) Gram row one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import linalg
from .errors import (
    LatticeMismatch,
    NonNegativeVector,
    NotOrthogonal,
    NotSpanning,
    WrongInertia,
)
from .isometries import Isometry
from .lattices import QuadLattice, cleared, primitive, primitive_content, ray
from .linalg import (
    Subspace,
    Terms,
    gram_of,
    nonzero_terms,
    restricted_definiteness,
    span,
    terms_times,
)

IntVec = tuple[int, ...]
IsotropicLines = tuple[int, int, int, int] | None  # see _isotropic_lines


@dataclass(frozen=True)
class GrPoint:
    """A positive-definite p-plane, i.e. one point of the Grassmannian model."""

    lattice: QuadLattice
    plane: Subspace


def gr_point(plane: Subspace, l: QuadLattice) -> GrPoint:
    sig = restricted_definiteness(plane, l)
    if sig != (plane.dim, 0, 0):
        raise WrongInertia(f"plane has restricted inertia {sig}, not positive definite")
    return GrPoint(l, plane)


@dataclass(frozen=True, eq=False)
class Flat:
    """Orthogonal splitting into hyperbolic 2-blocks plus a negative rest,
    held as primitive integer rows. `blocks` and `rest` are the derived RREF
    subspaces; flats are equal iff their lattices and subspaces are."""

    lattice: QuadLattice
    # per block, of inertia (1,1,0): x, y and Q(x), B(x,y), Q(y) over their positive gcd
    int_blocks: tuple[tuple[IntVec, IntVec, int, int, int], ...]
    int_rest: tuple[IntVec, ...]  # negative definite, possibly empty

    @cached_property
    def blocks(self) -> tuple[Subspace, ...]:
        return tuple(span([x, y], ambient=self.lattice.rank) for x, y, *_ in self.int_blocks)

    @cached_property
    def rest(self) -> Subspace:
        return span(self.int_rest, ambient=self.lattice.rank)

    @cached_property
    def block_terms(self) -> tuple[tuple[Terms, Terms, int, int, int, IsotropicLines], ...]:
        """int_blocks with x and y as their nonzero (column, value) terms
        (a rotated block row has at most two), and last the block's
        isotropic lines from :func:`_isotropic_lines`: the verdicts read
        these."""
        return tuple(
            (*nonzero_terms((x, y)), qx, bxy, qy, _isotropic_lines(qx, bxy, qy))
            for x, y, qx, bxy, qy in self.int_blocks
        )

    @property
    def block_count(self) -> int:
        return len(self.int_blocks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lattice, self.blocks, self.rest) == (other.lattice, other.blocks, other.rest)

    def __hash__(self):
        return hash((self.lattice, self.blocks, self.rest))


def _isotropic_lines(qx: int, bxy: int, qy: int) -> IsotropicLines:
    """The two rational isotropic lines u = alpha*x + beta*y and
    u' = alpha'*x + beta'*y of a block <x, y> of Gram triple (qx, bxy, qy),
    whose discriminant d = bxy^2 - qx*qy is positive, as (alpha, beta,
    alpha', beta') with B(u, u') < 0; None when d is not a square s^2.

    With beta = qx, Q(alpha*x + beta*y) = qx*(alpha^2 + 2*alpha*bxy + qx*qy)
    vanishes at alpha = -bxy +- s, and then B(u, u') = -2*qx*d, so u' is
    negated when qx < 0. When qx = 0, u = x and u' = qy*x - 2*bxy*y, with
    B(u, u') = -2*bxy^2.
    """
    d = bxy * bxy - qx * qy
    s = math.isqrt(d)
    if s * s != d:
        return None
    if not qx:
        return 1, 0, qy, -2 * bxy
    sign = 1 if qx > 0 else -1
    return -bxy + s, qx, -sign * (bxy + s), sign * qx


@dataclass(frozen=True)
class Hyperplane:
    """Locus of positive planes orthogonal to a negative line <v>, held as
    the line's primitive integer vector with its first nonzero entry
    positive: hyperplanes are equal iff their lattices and lines are."""

    lattice: QuadLattice
    normal: IntVec  # Q(normal) < 0

    @cached_property
    def functional(self) -> IntVec:
        """gram.normal, i.e. z -> B(normal, z)."""
        return terms_times(self.lattice.gram_terms, self.normal)


@dataclass(frozen=True)
class IntersectionVerdict:
    """Outcome of intersecting a flat with a hyperplane.

    tag is one of "Point" (with the unique intersection point attached),
    "Empty", or "Degenerate" (with a machine-readable reason).
    """

    tag: str
    point: GrPoint | None = None
    reason: str | None = None


_EMPTY = IntersectionVerdict("Empty")  # frozen, so every Empty cell shares it


def _certified_flat(parts, l: QuadLattice) -> Flat:
    """Certify and build a flat from primitive integer rows: one list of
    independent rows per block, then the rest's.

    Everything is read off the integer Gram matrix V.G.V^T of all the rows
    (:func:`linalg.gram_of`): each block has inertia
    (1,1,0), the rest is negative definite, entries between parts vanish,
    and, as pairwise orthogonal nondegenerate parts are independent, they
    span the space iff 2*blocks + dim rest = rank.
    """
    rows = [row for part in parts for row in part]
    gram = gram_of(rows, l)
    cuts = list(itertools.accumulate(map(len, parts), initial=0))
    *subs, rest_gram = [[row[a:b] for row in gram[a:b]] for a, b in zip(cuts, cuts[1:])]
    for i, g in enumerate(subs):
        if (sig := linalg.inertia(g)) != (1, 1, 0):
            raise WrongInertia(f"block {i} has restricted inertia {sig}, expected (1, 1, 0)")
    rest_sig = linalg.inertia(rest_gram)
    if rest_sig != (0, len(rest_gram), 0):
        raise WrongInertia(f"rest has restricted inertia {rest_sig}, expected negative definite")
    part_of = [i for i, part in enumerate(parts) for _ in part]
    for a, b in itertools.combinations(range(len(rows)), 2):
        if gram[a][b] and part_of[a] != part_of[b]:
            raise NotOrthogonal(f"components {part_of[a]} and {part_of[b]} are not orthogonal")
    if 2 * len(subs) + len(rest_gram) != l.rank:
        raise NotSpanning(f"components span only {len(rows)} of {l.rank} dimensions")
    triples = [(g[0][0], g[0][1], g[1][1]) for g in subs]  # gcd > 0, as det < 0 at (1,1,0)
    int_blocks = tuple((x, y, *(c // math.gcd(*t) for c in t)) for (x, y), t in zip(parts, triples))
    return Flat(l, int_blocks, tuple(parts[-1]))


def flat_new(u_bases, n_basis, l: QuadLattice) -> Flat:
    """Validate and build a flat from block bases and a rest basis.

    Each block must restrict to inertia (1,1,0), the rest to a negative
    definite form; all components must be pairwise orthogonal and together
    span the ambient space. Each component's rows are reduced to a basis
    by one RREF, and the certificate then runs on its primitive integer rows.
    """
    blocks = [span(rows, ambient=l.rank) for rows in u_bases]
    if not blocks:
        raise ValueError("a flat needs at least one hyperbolic block")
    parts = blocks + [span(n_basis, ambient=l.rank)]
    return _certified_flat([part.rows for part in parts], l)


def hyperplane_new(normal, l: QuadLattice) -> Hyperplane:
    """The hyperplane orthogonal to a rational vector of negative
    self-pairing; it depends only on the vector's line."""
    normal, _, q = ray(cleared(normal, l)[0], l)
    if q >= 0:
        raise NonNegativeVector(f"hyperplane normal needs negative self-pairing, got {q}")
    return Hyperplane(l, normal)


def _check_same_lattice(a, b) -> None:
    # a family shares one lattice object, so identity settles most calls
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatch("objects live over different lattices")


def _block_lines(flat: Flat, hyper: Hyperplane) -> tuple[list[tuple[int, int] | None], bool]:
    """One pass over the blocks: per block <x, y>, None when it lies inside
    the hyperplane's complement (a = b = 0), else (a, b), the cut line
    being the one through w = b*x - a*y, which is not formed here; and
    whether every cut line is positive, i.e. Q(w) > 0 on every block that
    is not None. No sign is read past the first line that is not positive.
    A split block reads Q(w)'s sign off its isotropic lines as
    sign(alpha*a + beta*b) * sign(alpha'*a + beta'*b); a non-split block
    forms Q(w) (see the module docstring)."""
    phi = hyper.functional
    pairs: list[tuple[int, int] | None] = []
    positive = True
    for xt, yt, qx, bxy, qy, lines in flat.block_terms:
        a = b = 0
        for j, v in xt:
            a += v * phi[j]
        for j, v in yt:
            b += v * phi[j]
        if not (a or b):
            pairs.append(None)
            continue
        pairs.append((a, b))
        if not positive:
            continue
        if lines is None:
            positive = b * (b * qx - 2 * a * bxy) + a * a * qy > 0
        else:
            al, be, al2, be2 = lines
            bu, bu2 = al * a + be * b, al2 * a + be2 * b
            positive = (bu > 0 and bu2 > 0) or (bu < 0 and bu2 < 0)
    return pairs, positive


def _rest_clause_holds(flat: Flat, hyper: Hyperplane) -> bool:
    """The hyperplane's line meets the rest's orthogonal complement
    trivially, i.e. B(v, r) != 0 for some rest basis vector r (false for a
    zero-dimensional rest)."""
    return any(sum(map(mul, hyper.functional, r)) for r in flat.int_rest)


def general_position(
    flat: Flat,
    hyper: Hyperplane,
    mode: str = "weak",
    *,
    skip_rest_clause_when_empty: bool = False,
) -> bool:
    """Transversality of a (flat, hyperplane) pair.

    weak: every complement-block intersection is a line, and the hyperplane's
    line meets the rest's orthogonal complement trivially (B(v, r) != 0 for
    some rest basis vector r). strong: weak, and every such line is positive
    (Q(w) > 0, read as a sign by :func:`_block_lines`).

    When the rest is zero-dimensional its orthogonal complement is the whole
    space, so the rest clause fails as stated; `skip_rest_clause_when_empty`
    opts out of the clause in exactly that case (and only that case).
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', got {mode!r}")
    _check_same_lattice(flat, hyper)
    pairs, positive = _block_lines(flat, hyper)
    if None in pairs:
        return False
    if not (skip_rest_clause_when_empty and not flat.int_rest):
        if not _rest_clause_holds(flat, hyper):
            return False
    if mode == "strong":
        return positive
    return True


def intersect_flat_hyperplane(flat: Flat, hyper: Hyperplane) -> IntersectionVerdict:
    """Certified flat-hyperplane intersection verdict, in one pass over the
    blocks.

    The hyperplane's complement cuts each hyperbolic block <x, y> in the
    line through w = B(v,y)*x - B(v,x)*y, whose sign is that of
    Q(w) = b^2 Q(x) - 2ab B(x,y) + a^2 Q(y) with a = B(v,x), b = B(v,y),
    read by :func:`_block_lines` without forming Q(w) on a split block.
    All lines positive: the unique intersection point is their direct sum
    (certified positive definite). Some line negative or isotropic: the
    intersection is empty. A block with a = b = 0 lies inside the
    complement and is degenerate (the criterion's hypothesis fails); the
    first such block is reported, even after a negative one. The rest
    clause of weak general position plays no role in the criterion;
    :func:`general_position` checks it.
    """
    _check_same_lattice(flat, hyper)
    pairs, positive = _block_lines(flat, hyper)
    if None in pairs:
        return IntersectionVerdict("Degenerate", reason=f"dim_not_one({pairs.index(None)})")
    if not positive:
        return _EMPTY
    cuts = []
    for (x, y, *_), (a, b) in zip(flat.int_blocks, pairs):
        g = math.gcd(a, b)  # w over gcd(a, b): the same line, with smaller rows
        a, b = a // g, b // g
        cuts.append([b * xi - a * yi for xi, yi in zip(x, y)])
    plane = span(cuts, ambient=flat.lattice.rank)
    return IntersectionVerdict("Point", point=gr_point(plane, flat.lattice))


def stabilizer_sign_patterns(flat: Flat, hyper: Hyperplane) -> list[tuple[int, ...]]:
    """Sign patterns s for which (+-1 on each block, +1 on the rest) keeps
    the hyperplane's line invariant.

    s is an involution, so it fixes <v> only by sending v to +v or to -v:
    to +v iff v has no component in any flipped block (a = b = 0 there), to
    -v iff v has no component in any unflipped block nor in the rest.
    Builds only those patterns, in itertools.product((1, -1))'s order; the
    all-ones pattern is always present. Under strong general position (with
    the rest clause) the result is exactly the all-ones pattern; degenerate
    normals admit more.
    """
    _check_same_lattice(flat, hyper)
    orthogonal = [pair is None for pair in _block_lines(flat, hyper)[0]]  # v has no block component
    fixed = [(1,)] if _rest_clause_holds(flat, hyper) else [(1,), (-1,)]
    return sorted(
        {s for f in fixed for s in itertools.product(*[(1, -1) if o else f for o in orthogonal])},
        reverse=True,
    )


def _translated_flat(g: Isometry, flat: Flat) -> Flat:
    """The image of a flat under a certified isometry g = A/D, built
    without a new certificate: g preserves the form, so it keeps the blocks'
    inertia, the rest's definiteness, the orthogonality and the span.

    A row x goes to primitive(A.x) = A.x / cx, cx its signed content, and
    B(A.x, A.y) = D^2 B(x, y). So the image block's Gram triple is a
    positive multiple of (qx cy^2, bxy cx cy, qy cx^2), read over its
    positive gcd, with (qx, bxy, qy) the block's own.
    """
    terms = g.num_terms
    blocks = []
    for x, y, qx, bxy, qy in flat.int_blocks:
        x, cx = primitive_content(terms_times(terms, x))
        y, cy = primitive_content(terms_times(terms, y))
        t = (qx * cy * cy, bxy * cx * cy, qy * cx * cx)
        d = math.gcd(*t)
        blocks.append((x, y, t[0] // d, t[1] // d, t[2] // d))
    rest = tuple(primitive(terms_times(terms, r)) for r in flat.int_rest)
    return Flat(flat.lattice, tuple(blocks), rest)


def translate(g: Isometry, obj):
    """Apply an isometry to a flat, hyperplane, or point.

    g preserves the form (an :class:`Isometry` is checked when it is
    made), so every image carries its object's certificate: a flat's
    (:func:`_translated_flat`), a normal's Q < 0 and a point's positive
    plane. Integer rows and normals are mapped through g's integer matrix
    and taken primitive (g's denominator only rescales them).
    """
    if not isinstance(obj, (Flat, Hyperplane, GrPoint)):
        raise TypeError(f"cannot translate {type(obj).__name__}")
    _check_same_lattice(g, obj)
    if isinstance(obj, Flat):
        return _translated_flat(g, obj)

    def image(x):
        return primitive(terms_times(g.num_terms, x))

    if isinstance(obj, Hyperplane):
        return Hyperplane(obj.lattice, image(obj.normal))
    return GrPoint(obj.lattice, span([image(x) for x in obj.plane.rows], ambient=obj.lattice.rank))
