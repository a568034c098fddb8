"""Exact rational linear algebra.

Vectors are tuples of ``Fraction``; matrices are tuples of row tuples.
No floating point enters any code path, so rank decisions, sign decisions
and subspace equalities are certified rather than approximate.

Subspaces are always stored with a reduced-row-echelon basis, which makes
subspace equality a bit-exact comparison of basis tuples.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import AmbientMismatch, NotSquare

if TYPE_CHECKING:  # pragma: no cover
    from .lattices import QuadLattice

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# Fraction("1e10000000") builds a ten-million-digit integer, so the
# decimal exponent of a string is capped before Fraction sees it.
MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like ``"3/4"`` to Fraction.

    Floats are rejected on purpose: they would silently poison exact
    computations, and so are booleans, which would pass for 0 and 1. A
    string with a zero denominator, or with a decimal exponent beyond
    ±MAX_DECIMAL_EXPONENT, is a ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        exponent = _DECIMAL_EXPONENT.search(x)
        if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent of {x[:40]!r} is beyond ±{MAX_DECIMAL_EXPONENT}"
            )
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot use {type(x).__name__} in exact arithmetic: {x!r}")


def as_vector(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def as_matrix(rows: Iterable[Iterable]) -> Mat:
    m = tuple(as_vector(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def zero_vector(n: int) -> Vec:
    return (ZERO,) * n


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in x)


def dot(x: Vec, y: Vec) -> Fraction:
    """Plain coordinate dot product (no bilinear form involved)."""
    return sum((a * b for a, b in zip(x, y)), ZERO)


def mat_vec(m: Mat, v: Vec) -> Vec:
    # skip zero terms: most matrices here are sparse-ish (diagonals, blocks)
    return tuple(sum((r[j] * v[j] for j in range(len(v)) if r[j] and v[j]), ZERO) for r in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt)
        for row in a
    )


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Returns (rows, pivot_columns). Leading entries are 1 and their columns
    are cleared, so the result is the canonical basis of the row space.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
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


def kernel(m: Mat, ncols: int | None = None) -> Mat:
    """Basis of the right null space {x : m.x = 0}, one vector per row."""
    if m:
        ncols = len(m[0])
    elif ncols is None:
        raise ValueError("empty constraint matrix needs an explicit column count")
    else:
        return identity_matrix(ncols)
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def _bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination).

    All intermediate divisions are exact, which keeps entry growth polynomial
    instead of exponential -- this is what makes rank-22 Gram determinants
    cheap.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(m: Mat) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotSquare(f"matrix is {len(m)}x{len(m[0]) if m else 0}")
    if n == 0:
        return ONE
    scale = 1
    int_rows = []
    for row in m:
        mult = math.lcm(*(x.denominator for x in row))
        scale *= mult
        int_rows.append([int(x * mult) for x in row])
    return Fraction(_bareiss_int(int_rows), scale)


def matrix_inverse(m: Mat) -> Mat:
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotSquare("cannot invert a non-square matrix")
    aug = tuple(row + ident for row, ident in zip(m, identity_matrix(n)))
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def diagonalize_symmetric(m: Mat) -> tuple[tuple[Fraction, ...], Mat]:
    """Congruence-diagonalize a symmetric matrix.

    Returns (d, t) with t.m.t^T = diag(d). A zero pivot with a nonzero
    diagonal entry further down is repaired by swapping; when the whole
    remaining diagonal vanishes, the row+column addition trick (add row j
    and column j onto row/column i where a[i][j] != 0) manufactures the
    pivot 2*a[i][j], keeping every step an exact congruence.
    """
    n = len(m)
    a = [[frac(x) for x in row] for row in m]
    t = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    def add_row_col(i: int, j: int, f: Fraction) -> None:
        for c in range(n):
            a[i][c] += f * a[j][c]
        for r in range(n):
            a[r][i] += f * a[r][j]
        for c in range(n):
            t[i][c] += f * t[j][c]

    def swap(i: int, j: int) -> None:
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


def inertia(m: Mat) -> tuple[int, int, int]:
    """Counts (n_plus, n_minus, n_zero) of a symmetric rational form."""
    diag, _ = diagonalize_symmetric(m)
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    return plus, minus, len(diag) - plus - minus


def _pivot_col(row: Vec) -> int:
    return next(i for i, x in enumerate(row) if x != 0)


@dataclass(frozen=True)
class Subspace:
    """A rational subspace, stored by its canonical RREF basis.

    Construct through :func:`span`; two subspaces are equal iff their basis
    tuples are identical.
    """

    ambient: int
    basis: Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        v = list(as_vector(vector))
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        for row in self.basis:
            p = _pivot_col(row)
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "basis": [[str(x) for x in row] for row in self.basis],
        }


def span(vectors: Iterable[Iterable], ambient: int | None = None) -> Subspace:
    """Canonical subspace spanned by the given row vectors.

    A zero or empty input yields the zero subspace (``ambient`` is then
    required to fix the dimension).
    """
    rows = as_matrix(vectors)
    if rows:
        width = len(rows[0])
        if ambient is not None and ambient != width:
            raise AmbientMismatch(f"rows of length {width}, ambient {ambient}")
        ambient = width
    elif ambient is None:
        raise ValueError("ambient dimension required for an empty span")
    reduced, _ = rref(rows)
    return Subspace(ambient, reduced)


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection a .. b via the kernel of the stacked constraint system.

    A vector lies in both spaces iff it is u.A = v.B for some coefficient
    vectors (u, v); those live in the kernel of the n x (dim a + dim b)
    matrix [A^T | -B^T].
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return span((), ambient=a.ambient)
    stacked = tuple(
        tuple(a.basis[j][i] for j in range(a.dim))
        + tuple(-b.basis[j][i] for j in range(b.dim))
        for i in range(a.ambient)
    )
    vectors = []
    for coeffs in kernel(stacked):
        x = zero_vector(a.ambient)
        for u, row in zip(coeffs[: a.dim], a.basis):
            if u:
                x = vec_add(x, vec_scale(u, row))
        vectors.append(x)
    return span(vectors, ambient=a.ambient)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return span(a.basis + b.basis, ambient=a.ambient)


def perp(a: Subspace, lattice: "QuadLattice") -> Subspace:
    """Orthogonal complement of ``a`` under the lattice's bilinear form."""
    if a.ambient != lattice.rank:
        raise AmbientMismatch(f"subspace ambient {a.ambient}, lattice rank {lattice.rank}")
    constraints = mat_mul(a.basis, lattice.gram_matrix())
    return span(kernel(constraints, ncols=lattice.rank), ambient=lattice.rank)


def restricted_definiteness(a: Subspace, lattice: "QuadLattice") -> tuple[int, int, int]:
    """Inertia of the lattice form restricted to the subspace."""
    if a.ambient != lattice.rank:
        raise AmbientMismatch(f"subspace ambient {a.ambient}, lattice rank {lattice.rank}")
    g = lattice.gram_matrix()
    restricted = mat_mul(mat_mul(a.basis, g), transpose(a.basis))
    return inertia(restricted)
