"""Orientation-sign computation in the tangent model of the symmetric space.

The tangent space at the base point is the space of p x q rational matrices.
It splits as (diagonal matrices) + (matrices annihilating a fixed unit
vector v). A compact-factor pair (diamond, star) acts by C -> diamond . C .
star^{-1}; the sign of interest is the determinant sign of that action
projected back onto the diagonal summand.

Each diagonal unit goes to a rank-one matrix, so the action has a closed
form: E_ii goes to a.b^T (a, b column i of diamond and of star), whose
diagonal part is a_k (b.v) / v_k in row k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InadmissibleV, NotOrthogonalPair
from .isometries import Isometry, product_of_reflections
from .lattices import standard_lattice
from .linalg import Mat, Vec


@dataclass(frozen=True)
class AdmissibleV:
    """Unit vector in the negative block with the admissibility conditions:
    sum of squares 1, nonzero in the first p slots, zero afterwards."""

    p: int
    coords: Vec

    @property
    def q(self) -> int:
        return len(self.coords)


def admissible_v(p: int, coords) -> AdmissibleV:
    v = linalg.as_vector(coords)
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
    return AdmissibleV(p, v)


def stereographic_unit_vector(u) -> Vec:
    """Rational point on the unit sphere from u in Q^(d-1):
    (2u_1, ..., 2u_{d-1}, 1 - |u|^2) / (1 + |u|^2)."""
    us = linalg.as_vector(u)
    norm = sum((x * x for x in us), Fraction(0))
    den = 1 + norm
    return tuple(2 * x / den for x in us) + ((1 - norm) / den,)


def random_admissible_v(p: int, q: int, rng: random.Random) -> AdmissibleV:
    """Seeded rejection sampler: stereographic rational sphere points with a
    random sign flip, rejecting any zero coordinate."""
    while True:
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p - 1)]
        point = stereographic_unit_vector(u)
        if any(x == 0 for x in point):
            continue
        if rng.random() < 0.5:
            point = tuple(-x for x in point)
        return admissible_v(p, point + (Fraction(0),) * (q - p))


def _check_shape(p: int, q: int, v: AdmissibleV) -> None:
    if v.p != p or v.q != q:
        raise InadmissibleV(f"vector shaped for (p={v.p}, q={v.q}), wanted ({p}, {q})")


def _diagonal(entries) -> Mat:
    """The Fraction matrix with the given diagonal and zeros elsewhere."""
    return tuple(
        tuple(Fraction(x if i == j else 0) for j in range(len(entries)))
        for i, x in enumerate(entries)
    )


def reflection_blocks(p: int, q: int, v: AdmissibleV) -> tuple[Mat, Mat]:
    """The pair (diag(1,...,1,-1), I - 2vv^T) acting on the positive and
    negative coordinate blocks."""
    _check_shape(p, q, v)
    star = tuple(
        tuple((Fraction(1) if i == j else Fraction(0)) - 2 * v.coords[i] * v.coords[j] for j in range(q))
        for i in range(q)
    )
    return _diagonal([1] * (p - 1) + [-1]), star


def build_k(p: int, q: int, v: AdmissibleV) -> Isometry:
    """The compact element of reflection_blocks as one isometry of
    diag(+1 x p, -1 x q): the reflection along e_p (Q = 1) is the diamond
    diag(1, ..., 1, -1), and the reflection along (0, v) (Q = -1) is the
    star I - 2vv^T on the negative block."""
    _check_shape(p, q, v)
    e_p = (0,) * (p - 1) + (1,) + (0,) * q
    return product_of_reflections([e_p, (0,) * p + v.coords], standard_lattice("bpq", p, q))


def _check_orthogonal_pair(diamond: Mat, star: Mat) -> None:
    for mat in (diamond, star):
        if linalg.mat_mul(linalg.transpose(mat), mat) != linalg.identity_matrix(len(mat)):
            raise NotOrthogonalPair("both factors must be exactly orthogonal")
    if linalg.det(diamond) * linalg.det(star) != 1:
        raise NotOrthogonalPair("determinants must multiply to +1")


def _diagonal_action(diamond: Mat, s, v: AdmissibleV) -> Mat:
    """Entry (k, i) is diamond[k][i] s_i / v_k, where s = star^T v; a zero
    entry of diamond is returned as it is (pi_k_matrix's is diagonal)."""
    return tuple(
        tuple(d * si / vk if d else d for d, si in zip(row, s))
        for row, vk in zip(diamond, v.coords)
    )


def action_on_diagonal(diamond: Mat, star: Mat, v: AdmissibleV) -> Mat:
    """Matrix of the induced map on the diagonal summand (diamond p x p and
    star q x q, shaped for v).

    Column i is the diagonal part of diamond . E_ii . star^T = a.b^T (a, b
    column i of diamond and of star). Row k of a.b^T is A_k e_k plus a row
    that annihilates v, so A_k v_k = a_k (b.v): entry (k, i) is
    diamond[k][i] (star^T v)_i / v_k, and no p x q matrix is built.
    """
    p = len(diamond)
    s = [sum(row[i] * x for row, x in zip(star, v.coords)) for i in range(p)]
    return _diagonal_action(diamond, s, v)


def pi_k_matrix(p: int, q: int, v: AdmissibleV) -> Mat:
    """The diagonal-summand action of the canonical compact element; equals
    diag(-1, ..., -1, +1) with determinant (-1)^(p-1) for every admissible v.
    Its star I - 2vv^T has star^T v = v - 2(v.v) v: no q x q star is built."""
    _check_shape(p, q, v)
    vv = sum(x * x for x in v.coords)
    s = [x - 2 * vv * x for x in v.coords[:p]]
    return _diagonal_action(_diagonal([1] * (p - 1) + [-1]), s, v)


def expected_pi_k_matrix(p: int) -> Mat:
    """diag(-1, ..., -1, +1) of size p, the claimed value of pi_k_matrix."""
    return _diagonal([-1] * (p - 1) + [1])


def epsilon_general(diamond, star, v: AdmissibleV) -> int:
    """Orientation sign of an S(O(p) x O(q)) pair acting on the tangent
    splitting: +1, -1, or 0 when the wedge degenerates.

    Computed as the determinant sign of the projected diagonal action, which
    equals the full top-wedge comparison of (transported diagonal basis +
    fixed complement basis) against the untransported one.
    """
    dm = linalg.as_matrix(diamond)
    st = linalg.as_matrix(star)
    if len(dm) != v.p or len(st) != v.q:
        raise NotOrthogonalPair(f"expected sizes {v.p} and {v.q}")
    _check_orthogonal_pair(dm, st)
    d = linalg.det(action_on_diagonal(dm, st, v))
    return 0 if d == 0 else (1 if d > 0 else -1)
