"""Integral quadratic lattices: construction, direct sums, classification,
and the integer-ray kernel: a rational vector cleared of denominators, the
primitive integer vector on its line, and that vector's pairing and Q.
A lattice's nondegeneracy, determinant, signature and orthogonal basis are
read off one fraction-free congruence of its Gram matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .errors import AmbientMismatch, BudgetExceeded, DegenerateGram

# The largest rank p + q of B(p,q): every (g, g) with g <= 32 (arrange's MAX_Q) and (3,19)
MAX_RANK = 64

# Edges of the E8 Dynkin diagram, Bourbaki numbering: the chain
# 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))

_HYPERBOLIC = ((0, 1), (1, 0))

# K3's blocks as (label, lattice kind), in the order standard_lattice("k3")
# stacks them: three hyperbolic planes, then two negated E8s
K3_BLOCKS = (
    ("h:1", "hyperbolic"),
    ("h:2", "hyperbolic"),
    ("h:3", "hyperbolic"),
    ("e8:1", "e8_neg"),
    ("e8:2", "e8_neg"),
)

# a primitive integer vector x, its pairing gram.x and its self-pairing Q(x)
Ray = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class QuadLattice:
    """A free Z-module with an integer Gram matrix.

    The Gram matrix must be symmetric and nondegenerate. Rank 0 is allowed
    so that direct sums have an identity element.
    """

    gram: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix must be square")
        if any(type(x) is not int for row in self.gram for x in row):
            raise TypeError("Gram entries must be integers")
        if tuple(map(tuple, self.gram)) != tuple(zip(*self.gram)):
            raise ValueError("Gram matrix must be symmetric")
        if len(self.congruence[0]) < n:
            raise DegenerateGram("Gram matrix has determinant 0")

    @cached_property
    def congruence(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """linalg._congruence of [gram | I] as tuples: pivots p_0..p_{n-1},
        p_{n-1} the determinant, and rows T_k on the lines of an orthogonal
        basis, T.gram.T^T = diag(p_{k-1} p_k), read off columns n and up."""
        unit = linalg._identity(self.rank)
        pivots, t = linalg._congruence([*row, *e] for row, e in zip(self.gram, unit))
        return tuple(pivots), tuple(map(tuple, t))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def gram_terms(self) -> linalg.Terms:
        """The nonzero terms of each Gram row: every product with the Gram
        matrix reads these (B(p,q) has one per row, K3 at most four)."""
        return linalg.nonzero_terms(self.gram)

    @cached_property
    def gram_entries(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, g_ij) for each nonzero Gram entry, in one flat tuple."""
        return tuple((i, j, c) for i, row in enumerate(self.gram_terms) for j, c in row)

    def self_pairing(self, v) -> int:
        """Q(v) = v.G.v for an integer vector v, over the nonzero Gram entries."""
        return sum(c * v[i] * v[j] for i, j, c in self.gram_entries)

    @cached_property
    def orthogonal_rays(self) -> tuple[tuple[Ray, tuple[tuple[int, int], ...]], ...]:
        """Per row T_k of the congruence, ray(primitive(T_k)) and the
        nonzero terms of that primitive row: the orthogonal basis that the
        Cartan-Dieudonne walk steps over (K3's rows have 1-8 terms of 22)."""
        rays = [ray(row, self) for row in self.congruence[1]]
        return tuple(zip(rays, linalg.nonzero_terms(x for x, _, _ in rays)))


def quad_lattice(rows: Iterable[Iterable[int]], name: str | None = None) -> QuadLattice:
    """The lattice with these Gram rows, entries taken by linalg.cleared:
    floats and booleans are a TypeError, a non-integral entry a ValueError."""
    gram, s = linalg.cleared(rows)
    if s > 1:
        raise ValueError("Gram entries must be integers")
    return QuadLattice(tuple(map(tuple, gram)), name)


@dataclass(frozen=True)
class LatticeClass:
    signature: tuple[int, int]
    parity: str  # "even" | "odd"
    det: int
    unimodular: bool


def _e8_gram() -> tuple[tuple[int, ...], ...]:
    adj = {(i - 1, j - 1) for i, j in _E8_EDGES} | {(j - 1, i - 1) for i, j in _E8_EDGES}
    return tuple(
        tuple(2 if i == j else (-1 if (i, j) in adj else 0) for j in range(8))
        for i in range(8)
    )


def _negated(gram) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(-x for x in row) for row in gram)


def check_rank(p: int, q: int) -> None:
    """Raise BudgetExceeded unless p + q <= MAX_RANK: checked before a dense
    Gram matrix of that rank is built."""
    if p + q > MAX_RANK:
        raise BudgetExceeded(f"ranks p + q <= {MAX_RANK} are supported, got p + q = {p + q}")


@lru_cache(maxsize=None)
def standard_lattice(kind: str, p: int | None = None, q: int | None = None) -> QuadLattice:
    """Named Gram matrices: ``bpq``, ``hyperbolic``, ``e8_pos``, ``e8_neg``, ``k3``.

    ``bpq`` is diag(+1 x p, -1 x q) and needs p, q >= 1. ``k3`` is the
    rank-22 direct sum of three hyperbolic planes and two negated E8 blocks.
    """
    if kind == "bpq":
        if p is None or q is None or p < 1 or q < 1:
            raise ValueError("bpq requires p >= 1 and q >= 1")
        check_rank(p, q)
        diag = [1] * p + [-1] * q
        return quad_lattice(
            [[diag[i] if i == j else 0 for j in range(p + q)] for i in range(p + q)],
            name=f"B({p},{q})",
        )
    if kind == "hyperbolic":
        return QuadLattice(_HYPERBOLIC, name="H")
    if kind == "e8_pos":
        return QuadLattice(_e8_gram(), name="E8")
    if kind == "e8_neg":
        return QuadLattice(_negated(_e8_gram()), name="-E8")
    if kind == "k3":
        return QuadLattice(_block_diagonal(*(standard_lattice(b).gram for _, b in K3_BLOCKS)), "K3")
    raise ValueError(f"unknown lattice kind: {kind!r}")


def _block_diagonal(*grams) -> tuple[tuple[int, ...], ...]:
    """The block-diagonal Gram matrix of the given square blocks, in order."""
    n = sum(map(len, grams))
    rows = []
    at = 0
    for gram in grams:
        for row in gram:
            rows.append((0,) * at + tuple(row) + (0,) * (n - at - len(row)))
        at += len(gram)
    return tuple(rows)


def combine(a: QuadLattice, b: QuadLattice, negate_b: bool = False) -> QuadLattice:
    """Orthogonal direct sum of two lattices, optionally negating b's form."""
    if b.rank == 0:
        return a
    return QuadLattice(_block_diagonal(a.gram, _negated(b.gram) if negate_b else b.gram))


def eval_form(l: QuadLattice, x: Sequence, y: Sequence) -> Fraction:
    """The pairing x^T . gram . y, computed exactly: the integer pairing of
    the cleared rows, over the product of their denominators."""
    (xs, s), (ys, t) = cleared(x, l), cleared(y, l)
    return Fraction(sum(map(mul, xs, linalg.terms_times(l.gram_terms, ys))), s * t)


def cleared(v, l: QuadLattice) -> tuple[list[int], int]:
    """(row, s) with row an integer vector and s > 0 the lcm of the
    denominators of the rational vector v = row/s on l: linalg.cleared
    of the one row, checked against l's rank. A row of ints (bools are not
    taken) is copied as it is, with s = 1."""
    row, s = list(v), 1
    if not all(type(a) is int for a in row):
        (row,), s = linalg.cleared([row])
    if len(row) != l.rank:
        raise AmbientMismatch(f"vector of length {len(row)} on rank {l.rank}")
    return row, s


def primitive_content(x) -> tuple[tuple[int, ...], int]:
    """(primitive(x), c) with x = c * primitive(x): c is the gcd of x with
    the sign of x's first nonzero entry, 0 for the zero vector."""
    g = math.gcd(*x)
    if not g:
        return tuple(x), 0
    for lead in x:
        if lead:
            break
    if lead < 0:
        g = -g
    return (tuple(x) if g == 1 else tuple([c // g for c in x])), g


def primitive(x) -> tuple[int, ...]:
    """The primitive integer vector on the line of the integer vector x,
    its first nonzero entry positive, so that equal lines give equal
    vectors. The zero vector stays zero."""
    return primitive_content(x)[0]


def ray(x, l: QuadLattice) -> Ray:
    """primitive(x) for an integer vector x on l, with its pairing gram.x,
    i.e. z -> B(x, z), and its self-pairing Q."""
    x = primitive(x)
    pairing = linalg.terms_times(l.gram_terms, x)
    return x, pairing, sum(map(mul, x, pairing))


def determinant(l: QuadLattice) -> int:
    """The last pivot of the lattice's congruence (1 at rank 0)."""
    return (l.congruence[0] or (1,))[-1]


def classify(l: QuadLattice) -> LatticeClass:
    """Signature and determinant read off the lattice's congruence, and parity."""
    d = determinant(l)
    plus, minus = linalg.pivot_signature(l.congruence[0])
    parity = "even" if all(l.gram[i][i] % 2 == 0 for i in range(l.rank)) else "odd"
    return LatticeClass((plus, minus), parity, d, abs(d) == 1)
