"""Orientation-sign computation in the tangent model of the symmetric space.

The tangent space at the base point is the space of p x q rational matrices.
It splits as (diagonal matrices) + (matrices annihilating a fixed unit
vector v). A compact-factor pair (diamond, star) acts by C -> diamond . C .
star^{-1}; the sign of interest is the determinant sign of that action
projected back onto the diagonal summand. That action has a closed form,
whose sign :func:`epsilon_general` reads in integers off the pair's cleared
rows; Fractions appear only in coordinates and matrices built for output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .errors import InadmissibleV, NotOrthogonalPair
from .isometries import Isometry, product_of_reflections
from .lattices import standard_lattice
from .linalg import ONE, ZERO, Mat, Vec


@dataclass(frozen=True)
class AdmissibleV:
    """Unit vector num/den in the negative block, nonzero in the first p
    slots and zero afterwards: num is an integer tuple, den > 0, gcd(num,
    den) = 1 and sum(num^2) = den^2, so equal vectors have equal fields."""

    p: int
    num: tuple[int, ...]
    den: int

    @cached_property
    def coords(self) -> Vec:
        """num/den as Fractions, built on first use."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def q(self) -> int:
        return len(self.num)


def check_signature(p: int, q: int) -> None:
    """Raise InadmissibleV unless 1 <= p <= q."""
    if not 1 <= p <= q:
        raise InadmissibleV(f"need 1 <= p <= q, got p={p}, q={q}")


def _admissible(p: int, num: tuple[int, ...], den: int) -> AdmissibleV:
    check_signature(p, len(num))
    if sum(x * x for x in num) != den * den:
        raise InadmissibleV("coordinates must have sum of squares exactly 1")
    for j, x in enumerate(num):
        if j < p and x == 0:
            raise InadmissibleV(f"coordinate {j + 1} vanishes but lies in the first p slots")
        if j >= p and x != 0:
            raise InadmissibleV(f"coordinate {j + 1} must vanish beyond the first p slots")
    return AdmissibleV(p, num, den)


def admissible_v(p: int, coords) -> AdmissibleV:
    """coords (ints, Fractions or rational strings) as an AdmissibleV, read
    through linalg.cleared: floats and booleans are a TypeError."""
    (num,), den = linalg.cleared([coords])
    return _admissible(p, tuple(num), den)


def _stereographic(ratios) -> tuple[list[int], int]:
    """(X, D), primitive with D > 0, for the sphere point X/D over u_i =
    a_i/b_i: with L = lcm(b), U_i = a_i.L/b_i and N = sum(U^2), X = (2U.L,
    L^2 - N) and D = L^2 + N."""
    scale = math.lcm(*(b for _, b in ratios))
    us = [a * (scale // b) for a, b in ratios]
    norm = sum(x * x for x in us)
    num = [2 * x * scale for x in us] + [scale * scale - norm]
    den = scale * scale + norm
    g = math.gcd(den, *num)
    return [x // g for x in num], den // g


def random_admissible_v(p: int, q: int, rng: random.Random) -> AdmissibleV:
    """Seeded rejection sampler: stereographic rational sphere points over
    u_i = randint(-9, 9) / randint(1, 9), with a random sign flip, rejecting
    any zero coordinate; all in integers. Raises InadmissibleV unless
    1 <= p <= q, before the first draw."""
    check_signature(p, q)
    while True:
        num, den = _stereographic([(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p - 1)])
        if 0 in num:
            continue
        if rng.random() < 0.5:
            num = [-x for x in num]
        return _admissible(p, tuple(num) + (0,) * (q - p), den)


def _diagonal(entries) -> Mat:
    """The matrix with the given Fraction diagonal and ZERO elsewhere."""
    n = len(entries)
    return tuple(tuple(x if i == j else ZERO for j in range(n)) for i, x in enumerate(entries))


def reflection_blocks(v: AdmissibleV) -> tuple[Mat, Mat]:
    """The pair (diag(1,...,1,-1), I - 2vv^T) acting on the positive and
    negative coordinate blocks."""
    c = v.coords
    star = tuple(tuple(int(i == j) - 2 * a * b for j, b in enumerate(c)) for i, a in enumerate(c))
    return _diagonal([ONE] * (v.p - 1) + [-ONE]), star


def build_k(v: AdmissibleV) -> Isometry:
    """The compact element of reflection_blocks as one isometry of
    diag(+1 x p, -1 x q): the reflection along e_p (Q = 1) is the diamond
    diag(1, ..., 1, -1), and the reflection along (0, num) (Q = -den^2, the
    line of (0, v)) is the star I - 2vv^T on the negative block."""
    p, q = v.p, v.q
    e_p = (0,) * (p - 1) + (1,) + (0,) * q
    return product_of_reflections([e_p, (0,) * p + v.num], standard_lattice("bpq", p, q))


def pi_k_matrix(v: AdmissibleV) -> Mat:
    """The diagonal-summand action of the canonical compact element, diag(-1,
    ..., -1, +1) for every admissible v = X/D: its star has star^T v = v -
    2(v.v) v, so entry (k, k) is diamond_kk (D^2 - 2 sum X^2) / D^2."""
    den2 = v.den * v.den
    t = Fraction(den2 - 2 * sum(x * x for x in v.num), den2)
    return _diagonal([t] * (v.p - 1) + [-t])


def expected_pi_k_matrix(p: int) -> Mat:
    """diag(-1, ..., -1, +1) of size p, the claimed value of pi_k_matrix."""
    return _diagonal([-ONE] * (p - 1) + [ONE])


def _orthogonal(rows: list[list[int]], scale: int) -> bool:
    """Whether rows/scale is orthogonal: its column Gram matrix is scale^2 I."""
    n, cols = len(rows), list(zip(*rows))
    unit = [[scale * scale * (i == j) for j in range(n)] for i in range(n)]
    return [[sum(map(mul, x, y)) for y in cols] for x in cols] == unit


def epsilon_general(diamond, star, v: AdmissibleV) -> int:
    """Orientation sign of an S(O(p) x O(q)) pair acting on the tangent
    splitting: +1, -1, or 0 when the wedge degenerates.

    It is the determinant sign of the projected diagonal action, which
    equals the full top-wedge comparison of (transported diagonal basis +
    fixed complement basis) against the untransported one. Row k of
    diamond . E_ii . star^T is A_k e_k plus a row annihilating v, so the
    action's entry (k, i) is diamond[k][i] s_i / v_k with s = star^T v, and
    its determinant is det(diamond) prod(s_i) / prod(v_k) over i, k < p.
    With star = B/t and v = X/D, s has the signs of B^T X: all in integers.
    """
    (a, a_scale), (b, b_scale) = linalg.cleared(diamond), linalg.cleared(star)
    if len(a) != v.p or len(b) != v.q:
        raise NotOrthogonalPair(f"expected sizes {v.p} and {v.q}")
    if not (_orthogonal(a, a_scale) and _orthogonal(b, b_scale)):
        raise NotOrthogonalPair("both factors must be exactly orthogonal")
    det_a, det_b = linalg._bareiss_int(a), linalg._bareiss_int(b)
    if (det_a > 0) != (det_b > 0):
        raise NotOrthogonalPair("determinants must multiply to +1")
    s = [sum(row[i] * x for row, x in zip(b, v.num)) for i in range(v.p)]
    sign = det_a * math.prod(map(mul, s, v.num))
    return (sign > 0) - (sign < 0)
