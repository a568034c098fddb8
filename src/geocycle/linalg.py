"""Exact rational linear algebra.

No floating point enters any code path, so rank decisions, sign decisions
and subspace equalities are certified rather than approximate. Rational
input (ints, Fractions, strings like "3/4") enters the integer core one
way, through :func:`cleared`, which writes rows as integer rows over the
lcm of all their denominators; integer rows pair under a lattice one way,
through :func:`gram_of`, which computes V.G.V^T over the Gram matrix's
nonzero terms.

Both eliminations run in integers, with Fractions only at their edge: the
symmetric one behind inertia and congruence diagonalization is
fraction-free Bareiss, and the row one behind rref, the integer null space
and subspaces is a Gauss-Jordan that divides each row by its content after
every operation.
A subspace is stored by its primitive integer RREF rows, which makes
subspace equality a bit-exact comparison of integer tuples.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Iterable

from .errors import AmbientMismatch, NotSquare

if TYPE_CHECKING:  # pragma: no cover
    from .lattices import QuadLattice

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
# per row of an integer matrix, its nonzero entries as (column, value) pairs
Terms = tuple[tuple[tuple[int, int], ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_value = itemgetter(1)  # of a (column, value) pair


# Fraction("1e10000000") builds a ten-million-digit integer, so the
# decimal exponent of a string is capped before Fraction sees it.
MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# the strings _ratio reads without Fraction: an ASCII integer or "n/d"
_PLAIN_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like ``"3/4"`` to Fraction, as
    read by :func:`_ratio`; a Fraction is returned as it is."""
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def as_vector(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt)
        for row in a
    )


def nonzero_terms(rows: Iterable[Iterable[int]]) -> Terms:
    """Per row of an integer matrix, its nonzero entries as (column, value)
    pairs, so that a product with the matrix skips its zeros."""
    return tuple([tuple(filter(_value, enumerate(row))) for row in rows])


def terms_times(terms: Terms, x) -> tuple[int, ...]:
    """M.x for the integer matrix M held as its nonzero terms. The plain
    loop beats a comprehension per row on rows of one or two terms."""
    out = []
    for row in terms:
        total = 0
        for j, v in row:
            total += v * x[j]
        out.append(total)
    return tuple(out)


def times_terms(rows, terms) -> list[int]:
    """M.x for the integer vector x held as its nonzero (column, value)
    terms: each row of M is read at those columns only."""
    out = []
    for row in rows:
        total = 0
        for j, v in terms:
            total += row[j] * v
        out.append(total)
    return out


def _ratio(x) -> tuple[int, int]:
    """(n, d) with x = n/d in lowest terms, d > 0: the one reader of a
    rational scalar. Ints and Fractions are read as they are and a plain
    ASCII "n" or "n/d" string by one match and one gcd; other strings go
    through Fraction. Floats are rejected on purpose: they would silently
    poison exact computations, and so are booleans, which would pass for 0
    and 1. A string with a zero denominator, or with a decimal exponent
    beyond ±MAX_DECIMAL_EXPONENT, is a ValueError."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if type(x) is str and _PLAIN_RATIONAL.fullmatch(x):
        n, _, d = x.partition("/")
        n, d = int(n), int(d or 1)
        if d:
            g = math.gcd(n, d)
            return (n, d) if g == 1 else (n // g, d // g)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x).as_integer_ratio()  # subclasses, such as an IntEnum member
    if not isinstance(x, str):
        raise TypeError(f"cannot use {type(x).__name__} in exact arithmetic: {x!r}")
    exponent = _DECIMAL_EXPONENT.search(x)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {x[:40]!r} is beyond ±{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(x).as_integer_ratio()
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def cleared(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """(s.rows, s) for rows of ints, Fractions or strings, s > 0 the lcm of
    all their denominators: int rows pass through with s = 1. Entries are
    read by :func:`_ratio` in row order, each distinct string once, so
    floats and booleans are a TypeError, and ragged rows are a ValueError.
    The lcm runs over the distinct denominators, and each distinct string
    is scaled once. Only strings share a memo: True == 1 and 1.0 == 1 hash
    alike, so a memo keyed on other entries would let them through."""
    rows = [list(row) for row in rows]
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, 1
    memo: dict[str, tuple[int, int]] = {}
    others = []  # the (n, d) of each entry that is not a string, in order
    for x in chain.from_iterable(rows):
        if type(x) is not str:
            others.append(_ratio(x))
        elif x not in memo:
            memo[x] = _ratio(x)
    s = math.lcm(*{d for _, d in chain(memo.values(), others)})
    scaled = {x: n * (s // d) for x, (n, d) in memo.items()}
    rest = iter([n * (s // d) for n, d in others])
    return [[scaled[x] if type(x) is str else next(rest) for x in row] for row in rows], s


def gram_of(rows: Iterable[Iterable[int]], lattice: "QuadLattice") -> list[list[int]]:
    """V.G.V^T for integer rows V on the lattice with Gram matrix G: each
    row's pairing G.v over `gram_terms`, each pair once and mirrored."""
    rows = list(rows)
    gram = [[0] * len(rows) for _ in rows]
    for a, x in enumerate(rows):
        gx = terms_times(lattice.gram_terms, x)
        for b in range(a, len(rows)):
            gram[a][b] = gram[b][a] = sum(map(mul, gx, rows[b]))
    return gram


def _echelon(rows: Iterable[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan: (rows, pivots) of the reduced row echelon form,
    zero rows dropped, each row its RREF row times the lcm of that row's
    denominators, i.e. primitive with a positive pivot entry. A row
    operation is (p/g).r_i - (f/g).r_pivot with g = gcd(p, f), and its
    result is divided by its content, so no row outgrows the final ones."""
    a = list(rows)
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        g = math.gcd(*a[piv]) if a[piv][c] > 0 else -math.gcd(*a[piv])
        a[piv], a[r] = a[r], [x // g for x in a[piv]]
        row, p = a[r], a[r][c]
        for i, other in enumerate(a):
            f = other[c]
            if f and i != r:
                g = math.gcd(p, f)
                other = [p // g * x - f // g * y for x, y in zip(other, row)]
                g = math.gcd(*other)
                a[i] = [x // g for x in other] if g > 1 else other
        pivots.append(c)
    return a[: len(pivots)], pivots


def _null_space(m: Iterable[list[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """Integer basis of {x : m.x = 0}: per free column f of m's echelon
    rows, (f, x) with x_f = L and x_c = -L.row[f] / row[c] on each pivot
    column c, L the lcm of the pivot entries over a nonzero row[f]."""
    rows, pivots = _echelon(m)
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[f] = lcm = math.lcm(*(row[c] for row, c in zip(rows, pivots) if row[f]))
        for row, c in zip(rows, pivots):
            x[c] = -row[f] * (lcm // row[c])
        out.append((f, x))
    return out


def rref(m) -> tuple[Mat, tuple[int, ...]]:
    """(rows, pivot_columns) of the reduced row echelon form, zero rows
    dropped: the canonical basis of the row space, read off _echelon."""
    rows, pivots = _echelon(cleared(m)[0])
    return tuple(map(_unit_pivot, rows, pivots)), tuple(pivots)


def _bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination).

    All intermediate divisions are exact, which keeps entry growth polynomial
    instead of exponential.
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
    """Exact determinant of a square rational matrix: Bareiss on its
    cleared rows."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotSquare(f"matrix is {len(m)}x{len(m[0]) if m else 0}")
    a, s = cleared(m)
    return Fraction(_bareiss_int(a), s**n)


@lru_cache(maxsize=None)
def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _congruence(rows: Iterable[Iterable[int]]) -> tuple[list[int], list[list[int]]]:
    """Symmetric Bareiss elimination of an integer symmetric n x n matrix a,
    its rows perhaps run on past column n: (pivots, t), p_0..p_{r-1} the
    pivots (r the rank) and t the columns past the n-th, which ride along
    the row operations: from [a | I], t.a.t^T = diag(p_{k-1} p_k) (p_{-1} = 1)
    and 0 past r. Each update (p.x - f.y) // p_prev is exact, every entry
    being a minor. A zero pivot is repaired by swapping in a later nonzero
    diagonal entry, else by adding row and column j onto i for the first
    a[i][j] != 0; it stops when the rest vanishes. Both repairs are
    congruences of determinant +-1, so at rank n, p_{n-1} is det(a)."""
    a = [list(r) for r in rows]
    n = len(a)
    pivots: list[int] = []
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
            if i != k:
                a[k], a[i] = a[i], a[k]
                for row in a[k:]:
                    row[k], row[i] = row[i], row[k]
        p = a[k][k]
        pivot_row = a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            if f:
                a[i][k + 1:] = [(p * x - f * y) // prev for x, y in zip(a[i][k + 1:], pivot_row)]
            elif p != prev:  # a row clear of the pivot column is only rescaled
                a[i][k + 1:] = [p * x // prev for x in a[i][k + 1:]]
        pivots.append(p)
        prev = p
    return pivots, [row[n:] for row in a]


def diagonalize_symmetric(m: Mat) -> tuple[tuple[Fraction, ...], Mat]:
    """(d, t) with t.m.t^T = diag(d) for a symmetric matrix m of ints or
    Fractions, read off _congruence of [s.m | I]: d_k = p_k / (s p_{k-1})
    and t_k = T_k / p_{k-1}, and past the rank r, d_k = 0 over p_{r-1}."""
    a, s = cleared(m)
    pivots, t = _congruence([*row, *e] for row, e in zip(a, _identity(len(a))))
    prevs = [1] + pivots
    prevs += prevs[-1:] * (len(t) - len(prevs))
    diag = (Fraction(p, prev * s) for p, prev in zip(pivots + [0] * (len(t) - len(pivots)), prevs))
    return tuple(diag), tuple(tuple(Fraction(x, prev) for x in row) for row, prev in zip(t, prevs))


def pivot_signature(pivots) -> tuple[int, int]:
    """Counts (n_plus, n_minus) of the diagonal entries d_k = p_k / p_{k-1}
    read off _congruence's pivots: d_k is positive iff p_k p_{k-1} is."""
    plus = sum(1 for p, prev in zip(pivots, [1, *pivots]) if (p > 0) == (prev > 0))
    return plus, len(pivots) - plus


def inertia(m) -> tuple[int, int, int]:
    """Counts (n_plus, n_minus, n_zero) of a symmetric matrix of ints or
    Fractions."""
    pivots, _ = _congruence(cleared(m)[0])
    return *pivot_signature(pivots), len(m) - len(pivots)


def _unit_pivot(row: list[int], c: int) -> Vec:
    """The integer row over its entry in column c, as Fractions."""
    return tuple(Fraction(x, row[c]) for x in row)


@dataclass(frozen=True)
class Subspace:
    """A rational subspace, stored by its canonical rows: each is its RREF
    row times the lcm of that row's denominators, i.e. primitive with a
    positive pivot entry. Construct through :func:`span`; two subspaces are
    equal iff their rows are identical."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Mat:
        """The canonical RREF basis as Fractions, built on first use."""
        return tuple(_unit_pivot(row, next(c for c, x in enumerate(row) if x)) for row in self.rows)

    def contains(self, vector) -> bool:
        (v,), _ = cleared([vector])
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        return len(_echelon([*self.rows, v])[1]) == self.dim

    def to_dict(self) -> dict:
        """The RREF basis as strings, read off the integer rows."""
        return {"ambient": self.ambient, "basis": list(map(_reduced_strings, self.rows))}


def _reduced_strings(row: tuple[int, ...]) -> list[str]:
    """str(Fraction(x, p)) for each entry x of a row with pivot entry p > 0:
    x/g over p/g with g = gcd(x, p), and an integer when p/g = 1."""
    p = next(x for x in row if x)
    out = []
    for x in row:
        g = math.gcd(x, p)
        out.append(str(x // g) if g == p else f"{x // g}/{p // g}")
    return out


def span(vectors: Iterable[Iterable], ambient: int | None = None) -> Subspace:
    """Canonical subspace spanned by the given row vectors.

    A zero or empty input yields the zero subspace (``ambient`` is then
    required to fix the dimension).
    """
    rows, _ = cleared(vectors)
    if rows:
        width = len(rows[0])
        if ambient is not None and ambient != width:
            raise AmbientMismatch(f"rows of length {width}, ambient {ambient}")
        ambient = width
    elif ambient is None:
        raise ValueError("ambient dimension required for an empty span")
    reduced, _ = _echelon(rows)
    return Subspace(ambient, tuple(map(tuple, reduced)))


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection a .. b via the kernel of the stacked constraint system.

    A vector lies in both spaces iff it is u.A = v.B for some coefficient
    vectors (u, v); those live in the integer kernel of the
    n x (dim a + dim b) matrix [A^T | -B^T].
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient, ())
    columns = list(zip(*a.rows))
    stacked = [[*x, *(-y for y in z)] for x, z in zip(columns, zip(*b.rows))]
    kernel_rows = _null_space(stacked, a.dim + b.dim)
    return span([[sum(map(mul, u, x)) for x in columns] for _, u in kernel_rows], ambient=a.ambient)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return span(a.rows + b.rows, ambient=a.ambient)


def perp(a: Subspace, lattice: "QuadLattice") -> Subspace:
    """Orthogonal complement of ``a`` under the lattice's bilinear form."""
    if a.ambient != lattice.rank:
        raise AmbientMismatch(f"subspace ambient {a.ambient}, lattice rank {lattice.rank}")
    constraints = [terms_times(lattice.gram_terms, row) for row in a.rows]
    return span([x for _, x in _null_space(constraints, lattice.rank)], ambient=lattice.rank)


def restricted_definiteness(a: Subspace, lattice: "QuadLattice") -> tuple[int, int, int]:
    """Inertia of the form on the subspace, read off its integer rows (a congruence)."""
    if a.ambient != lattice.rank:
        raise AmbientMismatch(f"subspace ambient {a.ambient}, lattice rank {lattice.rank}")
    return inertia(gram_of(a.rows, lattice))
