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
and normals are projective, so block bases and the functional B(v, .) are
stored as primitive integer vectors and every verdict is integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    LatticeMismatch,
    NonNegativeVector,
    NotOrthogonal,
    NotSpanning,
    WrongInertia,
)
from .isometries import Isometry
from .lattices import QuadLattice, eval_form
from .linalg import Subspace, Vec, restricted_definiteness, span

IntVec = tuple[int, ...]


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


@dataclass(frozen=True)
class Flat:
    """Orthogonal splitting into hyperbolic 2-blocks plus a negative rest."""

    lattice: QuadLattice
    blocks: tuple[Subspace, ...]  # each of restricted inertia (1,1,0)
    rest: Subspace  # negative definite, possibly zero-dimensional
    # per block: primitive integer basis x, y and Q(x), B(x,y), Q(y)
    int_blocks: tuple[tuple[IntVec, IntVec, int, int, int], ...] = field(
        compare=False, repr=False
    )

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class Hyperplane:
    """Locus of positive planes orthogonal to a fixed negative vector."""

    lattice: QuadLattice
    normal: Vec  # self-pairing < 0
    functional: IntVec = field(compare=False, repr=False)  # primitive multiple of gram.normal


@dataclass(frozen=True)
class IntersectionVerdict:
    """Outcome of intersecting a flat with a hyperplane.

    tag is one of "Point" (with the unique intersection point attached),
    "Empty", or "Degenerate" (with a machine-readable reason).
    """

    tag: str
    point: GrPoint | None = None
    reason: str | None = None


def _primitive(v) -> IntVec:
    """The primitive integer vector on the ray of a nonzero rational vector."""
    scale = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (scale // x.denominator) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _int_pairing(l: QuadLattice, x: IntVec) -> IntVec:
    """The integer functional gram.x, i.e. z -> B(x, z)."""
    return tuple(sum(g * c for g, c in zip(row, x) if g and c) for row in l.gram)


def _int_dot(x: IntVec, y: IntVec) -> int:
    return sum(a * b for a, b in zip(x, y) if a and b)


def flat_new(u_bases, n_basis, l: QuadLattice) -> Flat:
    """Validate and build a flat from block bases and a rest basis.

    Each block must restrict to inertia (1,1,0), the rest to a negative
    definite form; all components must be pairwise orthogonal and together
    span the ambient space.
    """
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
    int_blocks = []
    for b in blocks:
        x, y = (_primitive(row) for row in b.basis)
        gx = _int_pairing(l, x)
        int_blocks.append((x, y, _int_dot(gx, x), _int_dot(gx, y), _int_dot(_int_pairing(l, y), y)))
    return Flat(l, blocks, rest, tuple(int_blocks))


def hyperplane_new(normal, l: QuadLattice) -> Hyperplane:
    v = linalg.as_vector(normal)
    q = eval_form(l, v, v)
    if q >= 0:
        raise NonNegativeVector(f"hyperplane normal needs negative self-pairing, got {q}")
    return Hyperplane(l, v, _primitive(_int_pairing(l, _primitive(v))))


def _check_same_lattice(a, b) -> None:
    if a.lattice != b.lattice:
        raise LatticeMismatch("objects live over different lattices")


def _block_lines(flat: Flat, hyper: Hyperplane) -> list[tuple[IntVec, int] | None]:
    """Per block <x, y>: None when the block lies inside the hyperplane's
    complement (a = b = 0), else the cut line's integer spanning vector
    w = b*x - a*y and Q(w), by the closed form in the module docstring."""
    phi = hyper.functional
    out: list[tuple[IntVec, int] | None] = []
    for x, y, qx, bxy, qy in flat.int_blocks:
        a = _int_dot(phi, x)
        b = _int_dot(phi, y)
        if a == 0 and b == 0:
            out.append(None)
            continue
        w = tuple(b * xi - a * yi for xi, yi in zip(x, y))
        out.append((w, b * b * qx - 2 * a * b * bxy + a * a * qy))
    return out


def _rest_clause_holds(flat: Flat, hyper: Hyperplane) -> bool:
    """The hyperplane's line meets the rest's orthogonal complement
    trivially, i.e. B(v, r) != 0 for some rest basis vector r (false for a
    zero-dimensional rest)."""
    return any(linalg.dot(hyper.functional, r) != 0 for r in flat.rest.basis)


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
    (Q(w) > 0 in the closed form of :func:`_block_lines`).

    When the rest is zero-dimensional its orthogonal complement is the whole
    space, so the rest clause fails as stated; `skip_rest_clause_when_empty`
    opts out of the clause in exactly that case (and only that case).
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', got {mode!r}")
    _check_same_lattice(flat, hyper)
    lines = _block_lines(flat, hyper)
    if any(line is None for line in lines):
        return False
    if not (skip_rest_clause_when_empty and flat.rest.dim == 0):
        if not _rest_clause_holds(flat, hyper):
            return False
    if mode == "strong":
        return all(q > 0 for _, q in lines)
    return True


def intersect_flat_hyperplane(
    flat: Flat,
    hyper: Hyperplane,
    *,
    check_rest_clause: bool = False,
) -> IntersectionVerdict:
    """Certified flat-hyperplane intersection verdict.

    The hyperplane's complement cuts each hyperbolic block <x, y> in the
    line through w = B(v,y)*x - B(v,x)*y, whose sign is that of
    Q(w) = b^2 Q(x) - 2ab B(x,y) + a^2 Q(y) with a = B(v,x), b = B(v,y).
    All lines positive: the unique intersection point is their direct sum
    (certified positive definite). Some line negative or isotropic: the
    intersection is empty. A block with a = b = 0 lies inside the
    complement and is degenerate (the criterion's hypothesis fails); the
    first such block is reported.

    The rest clause of weak general position plays no role in the criterion
    itself; pass check_rest_clause=True to demand it anyway and receive a
    degenerate verdict when it fails.
    """
    _check_same_lattice(flat, hyper)
    lines = _block_lines(flat, hyper)
    for i, line in enumerate(lines):
        if line is None:
            return IntersectionVerdict("Degenerate", reason=f"dim_not_one({i})")
    if check_rest_clause and not _rest_clause_holds(flat, hyper):
        return IntersectionVerdict("Degenerate", reason="rest_clause_fails")
    if all(q > 0 for _, q in lines):
        plane = span([w for w, _ in lines], ambient=flat.lattice.rank)
        return IntersectionVerdict("Point", point=gr_point(plane, flat.lattice))
    return IntersectionVerdict("Empty")


def stabilizer_sign_patterns(flat: Flat, hyper: Hyperplane) -> list[tuple[int, ...]]:
    """Sign patterns s for which (+-1 on each block, +1 on the rest) keeps
    the hyperplane's line invariant.

    s is an involution, so it fixes <v> only by sending v to +v or to -v:
    to +v iff v has no component in any flipped block (a = b = 0 there), to
    -v iff v has no component in any unflipped block nor in the rest.
    Enumerates all 2^p candidates; the all-ones pattern is always present.
    Under strong general position (with the rest clause) the result is
    exactly the all-ones pattern; degenerate normals admit more.
    """
    _check_same_lattice(flat, hyper)
    orthogonal = [line is None for line in _block_lines(flat, hyper)]  # v has no block component
    no_rest = not _rest_clause_holds(flat, hyper)
    return [
        signs
        for signs in itertools.product((1, -1), repeat=flat.block_count)
        if all(o for o, s in zip(orthogonal, signs) if s == -1)
        or (no_rest and all(o for o, s in zip(orthogonal, signs) if s == 1))
    ]


def translate(g: Isometry, obj):
    """Apply an isometry to a flat, hyperplane, or point.

    Rebuilds through the validating constructors, so every invariant is
    re-certified on the image.
    """
    if isinstance(obj, Flat):
        _check_same_lattice(g, obj)
        return flat_new(
            [[g.apply(row) for row in b.basis] for b in obj.blocks],
            [g.apply(row) for row in obj.rest.basis],
            obj.lattice,
        )
    if isinstance(obj, Hyperplane):
        _check_same_lattice(g, obj)
        return hyperplane_new(g.apply(obj.normal), obj.lattice)
    if isinstance(obj, GrPoint):
        _check_same_lattice(g, obj)
        return gr_point(
            span([g.apply(row) for row in obj.plane.basis], ambient=obj.lattice.rank),
            obj.lattice,
        )
    raise TypeError(f"cannot translate {type(obj).__name__}")
