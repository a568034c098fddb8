"""Isometries of a rational quadratic space: reflections, factorization,
spinor norms and congruence-subgroup membership."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import (
    AmbientMismatch,
    CertificateFailed,
    DetMinusOne,
    FormNotPreserved,
    IsotropicVector,
    NonIntegralMatrix,
    NotSquare,
)
from .lattices import QuadLattice, eval_form
from .linalg import Mat, Vec


@dataclass(frozen=True)
class Isometry:
    """A rational matrix g with g^T.gram.g = gram, certified at construction."""

    matrix: Mat
    lattice: QuadLattice
    det: Fraction

    def apply(self, v) -> Vec:
        return linalg.mat_vec(self.matrix, linalg.as_vector(v))

    @property
    def is_identity(self) -> bool:
        return self.matrix == linalg.identity_matrix(self.lattice.rank)


def isometry_from_matrix(m, l: QuadLattice) -> Isometry:
    """Validate m^T.gram.m = gram exactly and package the result.

    The check runs in integers: with D the lcm of the denominators and
    A = D.m, m preserves the form iff A^T.gram.A = D^2.gram entrywise.
    That product is symmetric, so its upper triangle decides it.
    """
    mat = linalg.as_matrix(m)
    n = l.rank
    if len(mat) != n or any(len(r) != n for r in mat):
        raise NotSquare(f"expected a {n}x{n} matrix")
    d = math.lcm(*(x.denominator for row in mat for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in mat]
    gram = l.gram
    ga = [
        [sum(gram[i][k] * a[k][j] for k in range(n) if gram[i][k] and a[k][j]) for j in range(n)]
        for i in range(n)
    ]
    d2 = d * d
    for i in range(n):
        for j in range(i, n):
            if sum(a[k][i] * ga[k][j] for k in range(n) if a[k][i]) != d2 * gram[i][j]:
                raise FormNotPreserved("matrix does not preserve the bilinear form")
    # |det| = 1 is automatic for form-preserving matrices; keep the sign
    return Isometry(mat, l, Fraction(linalg._bareiss_int(a), d**n))


def identity_isometry(l: QuadLattice) -> Isometry:
    return Isometry(linalg.identity_matrix(l.rank), l, Fraction(1))


def compose(g: Isometry, h: Isometry) -> Isometry:
    """g after h. Products of certified isometries need no re-validation."""
    if g.lattice != h.lattice:
        raise AmbientMismatch("isometries over different lattices")
    return Isometry(linalg.mat_mul(g.matrix, h.matrix), g.lattice, g.det * h.det)


def _reflect(x, l: QuadLattice, m: Mat) -> Mat:
    """R_x.m = m - (2/Q(x)).x.((gram.x)^T.m) for the reflection R_x along x.

    A rank-one update: one row combination of m, then a multiple of it
    subtracted from the rows where x is nonzero; zero entries are skipped.
    """
    v = linalg.as_vector(x)
    n = l.rank
    if len(v) != n:
        raise AmbientMismatch(f"vector of length {len(v)} on rank {n}")
    gram = l.gram
    pairing = [sum(gram[i][j] * v[j] for j in range(n) if gram[i][j] and v[j]) for i in range(n)]
    q = sum((vi * pi for vi, pi in zip(v, pairing) if vi and pi), Fraction(0))
    if q == 0:
        raise IsotropicVector(f"cannot reflect along isotropic vector {v}")
    # c = (gram.x)^T.m, the functional z -> x.z applied to the columns of m
    c = [Fraction(0)] * len(m[0]) if m else []
    for pi, row in zip(pairing, m):
        if pi:
            c = [ck + pi * rk if rk else ck for ck, rk in zip(c, row)]
    scale = Fraction(2) / q
    out = []
    for vi, row in zip(v, m):
        if vi:
            f = scale * vi
            row = tuple(rk - f * ck if ck else rk for rk, ck in zip(row, c))
        out.append(row)
    return tuple(out)


def reflection(x, l: QuadLattice) -> Isometry:
    """The reflection along an anisotropic vector: z -> z - 2(z.x)/(x.x) x."""
    return Isometry(_reflect(x, l, linalg.identity_matrix(l.rank)), l, Fraction(-1))


@lru_cache(maxsize=None)
def _orthogonal_basis(l: QuadLattice) -> tuple[Vec, ...]:
    """A rational basis of pairwise-orthogonal anisotropic vectors.

    The rows of the congruence transform t (with t.gram.t^T diagonal) give
    one; nondegeneracy guarantees every diagonal entry is nonzero. Cached
    per lattice, as its Fraction Gram matrix is.
    """
    diag, t = linalg.diagonalize_symmetric(l.gram_matrix())
    if any(d == 0 for d in diag):
        raise CertificateFailed("diagonalized Gram matrix has a zero entry")
    return t


def cartan_dieudonne(g: Isometry) -> list[Vec]:
    """Factor g into reflections.

    Returns vectors x_1..x_k so that reflection(x_1) . ... . reflection(x_k)
    equals g exactly (matrix product in list order), with k <= 2*rank. The
    empty list is returned exactly for the identity.

    Walks an orthogonal basis b_1..b_n: at each step either one reflection
    (along g(b)-b when that vector is anisotropic) or two (along g(b)+b and
    then b, the classical workaround when g(b)-b is isotropic) restores b
    without disturbing the vectors already fixed.
    """
    l = g.lattice
    current = g.matrix
    vectors: list[Vec] = []
    for b in _orthogonal_basis(l):
        u = linalg.mat_vec(current, b)
        if u == b:
            continue
        w = linalg.vec_sub(u, b)
        if eval_form(l, w, w) != 0:
            vectors.append(w)
            current = _reflect(w, l, current)
        else:
            # q(u+b) = 4 q(b) != 0 when q(u-b) = 0; R^{u+b} sends u to -b
            w2 = linalg.vec_add(u, b)
            vectors.append(w2)
            current = _reflect(w2, l, current)
            vectors.append(b)
            current = _reflect(b, l, current)
    if current != linalg.identity_matrix(l.rank):
        raise CertificateFailed("reflection factorization did not reach the identity")
    if len(vectors) > 2 * l.rank:
        raise CertificateFailed(f"{len(vectors)} reflections exceed 2 * rank = {2 * l.rank}")
    return vectors


def product_of_reflections(vectors, l: QuadLattice) -> Isometry:
    """reflection(x_1) . ... . reflection(x_k), applied right to left."""
    vectors = list(vectors)
    out = linalg.identity_matrix(l.rank)
    for v in reversed(vectors):
        out = _reflect(v, l, out)
    return Isometry(out, l, Fraction((-1) ** len(vectors)))


@dataclass(frozen=True)
class SquareClass:
    """A nonzero rational modulo squares: squarefree representative + real sign."""

    representative: int
    real_sign: int

    def to_dict(self) -> dict:
        return {"class": self.representative, "real_sign": self.real_sign}


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s * k^2 for some integer k.

    Trial division runs only while d^3 <= the remaining cofactor: once no
    prime below d divides it and d^3 exceeds it, the cofactor has at most two
    prime factors, so it is squarefree unless it is a square. A square
    cofactor ends the search at once; that is tested at the start and after
    each prime removed.
    """
    if n == 0:
        raise ValueError("0 has no square class")
    sign = -1 if n < 0 else 1
    n = abs(n)
    if _is_square(n):
        return sign
    out = 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
            if _is_square(n):
                return sign * out
        d += 1 if d == 2 else 2
    return sign * out * n


def square_class(r: Fraction) -> SquareClass:
    # num/den = num*den / den^2; a Fraction's num and den are coprime, so the
    # squarefree part of num*den is the product of theirs, factored apart
    rep = squarefree_part(r.numerator) * squarefree_part(r.denominator)
    return SquareClass(rep, 1 if rep > 0 else -1)


def spinor_norm(g: Isometry, reflections: list[Vec] | None = None) -> SquareClass:
    """Product of the self-pairings over a reflection factorization, mod squares.

    Independent of the factorization; the identity (empty product) gets the
    trivial class (+1, +1). `reflections` reuses a factorization of g that
    :func:`cartan_dieudonne` already returned; by default g is factored here.
    """
    if reflections is None:
        reflections = cartan_dieudonne(g)
    total = Fraction(1)
    for x in reflections:
        total *= eval_form(g.lattice, x, x)
    return square_class(total)


def in_congruence_subgroup(g: Isometry, modulus: int) -> bool:
    """True iff g is integral, det +1, and congruent to the identity mod modulus."""
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    for row in g.matrix:
        for x in row:
            if x.denominator != 1:
                raise NonIntegralMatrix("congruence membership needs integer entries")
    if g.det != 1:
        raise DetMinusOne("congruence subgroups sit inside the determinant-one group")
    n = g.lattice.rank
    for i in range(n):
        for j in range(n):
            if (int(g.matrix[i][j]) - (1 if i == j else 0)) % modulus != 0:
                return False
    return True
