"""Orientation-sign computation in the tangent model of the symmetric space.

The tangent space at the base point is the space of p x q rational matrices.
It splits as (diagonal matrices) + (matrices annihilating a fixed unit
vector v). A compact-factor pair (diamond, star) acts by C -> diamond . C .
star^{-1}; the sign of interest is the determinant sign of that action
projected back onto the diagonal summand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CertificateFailed, InadmissibleV, NotOrthogonalPair
from .isometries import Isometry, isometry_from_matrix
from .lattices import standard_lattice
from .linalg import Mat, Vec

# A tangent vector is just a p x q rational matrix.
CartanTangent = Mat


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


def reflection_blocks(p: int, q: int, v: AdmissibleV) -> tuple[Mat, Mat]:
    """The pair (diag(1,...,1,-1), I - 2vv^T) acting on the positive and
    negative coordinate blocks."""
    if v.p != p or v.q != q:
        raise InadmissibleV(f"vector shaped for (p={v.p}, q={v.q}), wanted ({p}, {q})")
    diamond = tuple(
        tuple(Fraction(-1 if i == j == p - 1 else (1 if i == j else 0)) for j in range(p))
        for i in range(p)
    )
    star = tuple(
        tuple((Fraction(1) if i == j else Fraction(0)) - 2 * v.coords[i] * v.coords[j] for j in range(q))
        for i in range(q)
    )
    return diamond, star


def build_k(p: int, q: int, v: AdmissibleV) -> Isometry:
    """The block-diagonal compact element assembled from reflection_blocks,
    certified as an isometry of diag(+1 x p, -1 x q)."""
    diamond, star = reflection_blocks(p, q, v)
    n = p + q
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(p):
        for j in range(p):
            rows[i][j] = diamond[i][j]
    for i in range(q):
        for j in range(q):
            rows[p + i][p + j] = star[i][j]
    return isometry_from_matrix(rows, standard_lattice("bpq", p, q))


def project_p1(x: CartanTangent, v: AdmissibleV) -> Vec:
    """Diagonal part of the splitting X = A + C with C.v = 0.

    Row by row: A_i = X_ii + (sum_{j != i} v_j X_ij) / v_i. The residual
    C = X - embed(A) is verified to annihilate v exactly.
    """
    p = len(x)
    if p != v.p or any(len(row) != v.q for row in x):
        raise InadmissibleV(f"tangent matrix must be {v.p} x {v.q}")
    out = []
    for i, row in enumerate(x):
        correction = sum(
            (v.coords[j] * row[j] for j in range(v.q) if j != i and v.coords[j]),
            Fraction(0),
        )
        out.append(row[i] + correction / v.coords[i])
    for i, row in enumerate(x):
        residual = sum(
            ((row[j] - (out[i] if j == i else 0)) * v.coords[j] for j in range(v.q)),
            Fraction(0),
        )
        if residual != 0:
            raise CertificateFailed("projection residual does not annihilate v")
    return tuple(out)


def transport_diagonal_unit(diamond: Mat, star: Mat, i: int) -> CartanTangent:
    """The tangent action C -> diamond . C . star^{-1} on the diagonal unit
    E_ii. star is orthogonal, so its inverse is its transpose, and
    diamond . E_ii . star^T is the outer product of column i of diamond and
    column i of star."""
    zero_row = (Fraction(0),) * len(star)
    star_col = [row[i] for row in star]
    return tuple(
        tuple(row[i] * s if s else s for s in star_col) if row[i] else zero_row
        for row in diamond
    )


def _check_orthogonal_pair(diamond: Mat, star: Mat) -> None:
    for mat in (diamond, star):
        if linalg.mat_mul(linalg.transpose(mat), mat) != linalg.identity_matrix(len(mat)):
            raise NotOrthogonalPair("both factors must be exactly orthogonal")
    if linalg.det(diamond) * linalg.det(star) != 1:
        raise NotOrthogonalPair("determinants must multiply to +1")


def action_on_diagonal(diamond: Mat, star: Mat, v: AdmissibleV) -> Mat:
    """Matrix of the induced map on the diagonal summand: transport each
    diagonal unit and project back."""
    cols = [project_p1(transport_diagonal_unit(diamond, star, i), v) for i in range(len(diamond))]
    return linalg.transpose(linalg.as_matrix(cols))


def pi_k_matrix(p: int, q: int, v: AdmissibleV) -> Mat:
    """The diagonal-summand action of the canonical compact element; equals
    diag(-1, ..., -1, +1) with determinant (-1)^(p-1) for every admissible v."""
    diamond, star = reflection_blocks(p, q, v)
    return action_on_diagonal(diamond, star, v)


def expected_pi_k_matrix(p: int) -> Mat:
    """diag(-1, ..., -1, +1) of size p, the claimed value of pi_k_matrix."""
    return tuple(
        tuple(Fraction(0 if i != j else (-1 if i < p - 1 else 1)) for j in range(p))
        for i in range(p)
    )


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
