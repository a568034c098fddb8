"""Integral quadratic lattices: construction, direct sums, classification."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import linalg
from .errors import AmbientMismatch, DegenerateGram
from .linalg import Mat

# Edges of the E8 Dynkin diagram, Bourbaki numbering: the chain
# 1-3-4-5-6-7-8 with node 2 hanging off node 4.
_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


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
        for row in self.gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("Gram entries must be integers")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if n and linalg._bareiss_int([list(r) for r in self.gram]) == 0:
            raise DegenerateGram("Gram matrix has determinant 0")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def gram_matrix(self) -> Mat:
        return _gram_fractions(self)


@lru_cache(maxsize=None)
def _gram_fractions(l: QuadLattice) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in l.gram)


def quad_lattice(rows: Iterable[Iterable[int]], name: str | None = None) -> QuadLattice:
    return QuadLattice(tuple(tuple(int(x) for x in row) for row in rows), name)


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


def standard_lattice(kind: str, p: int | None = None, q: int | None = None) -> QuadLattice:
    """Named Gram matrices: ``bpq``, ``hyperbolic``, ``e8_pos``, ``e8_neg``, ``k3``.

    ``bpq`` is diag(+1 x p, -1 x q) and needs p, q >= 1. ``k3`` is the
    rank-22 direct sum of three hyperbolic planes and two negated E8 blocks.
    """
    if kind == "bpq":
        if p is None or q is None or p < 1 or q < 1:
            raise ValueError("bpq requires p >= 1 and q >= 1")
        diag = [1] * p + [-1] * q
        return quad_lattice(
            [[diag[i] if i == j else 0 for j in range(p + q)] for i in range(p + q)],
            name=f"B({p},{q})",
        )
    if kind == "hyperbolic":
        return quad_lattice([[0, 1], [1, 0]], name="H")
    if kind == "e8_pos":
        return QuadLattice(_e8_gram(), name="E8")
    if kind == "e8_neg":
        return quad_lattice([[-x for x in row] for row in _e8_gram()], name="-E8")
    if kind == "k3":
        h = standard_lattice("hyperbolic")
        e8n = standard_lattice("e8_neg")
        out = combine(combine(h, h), h)
        out = combine(combine(out, e8n), e8n)
        return QuadLattice(out.gram, name="K3")
    raise ValueError(f"unknown lattice kind: {kind!r}")


def combine(a: QuadLattice, b: QuadLattice, negate_b: bool = False) -> QuadLattice:
    """Orthogonal direct sum of two lattices, optionally negating b's form."""
    if b.rank == 0:
        return a
    sign = -1 if negate_b else 1
    n, m = a.rank, b.rank
    rows = []
    for i in range(n):
        rows.append(tuple(a.gram[i]) + (0,) * m)
    for i in range(m):
        rows.append((0,) * n + tuple(sign * x for x in b.gram[i]))
    return QuadLattice(tuple(rows))


def eval_form(l: QuadLattice, x: Sequence, y: Sequence) -> Fraction:
    """The pairing x^T . gram . y, computed exactly."""
    xs = linalg.as_vector(x)
    ys = linalg.as_vector(y)
    if len(xs) != l.rank or len(ys) != l.rank:
        raise AmbientMismatch(f"vectors of length {len(xs)},{len(ys)} on rank {l.rank}")
    g = l.gram
    total = Fraction(0)
    for i, xi in enumerate(xs):
        if xi:
            total += xi * sum((g[i][j] * ys[j] for j in range(l.rank) if g[i][j] and ys[j]), Fraction(0))
    return total


def determinant(l: QuadLattice) -> int:
    return linalg._bareiss_int([list(r) for r in l.gram])


def classify(l: QuadLattice) -> LatticeClass:
    """Signature by exact congruence diagonalization, parity, determinant."""
    d = determinant(l)
    if l.rank and d == 0:
        raise DegenerateGram("cannot classify a degenerate form")
    plus, minus, zero = linalg.inertia(l.gram_matrix())
    if zero:
        raise DegenerateGram("cannot classify a degenerate form")
    parity = "even" if all(l.gram[i][i] % 2 == 0 for i in range(l.rank)) else "odd"
    return LatticeClass((plus, minus), parity, d, abs(d) == 1)
