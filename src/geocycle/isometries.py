"""Isometries of a rational quadratic space: reflections, factorization,
spinor norms and congruence-subgroup membership."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from . import linalg
from .errors import (
    BudgetExceeded,
    CertificateFailed,
    DetMinusOne,
    FormNotPreserved,
    IsotropicVector,
    LatticeMismatch,
    NonIntegralMatrix,
    NotSquare,
)
from .lattices import QuadLattice, Ray, cleared, ray
from .linalg import Mat, _identity

IntMat = tuple[tuple[int, ...], ...]

# Trial divisions squarefree_part may spend on one integer; past them the
# square class is not certified, so it raises. Every divisor below 2*10^6
# is tried, so any integer below 8*10^18 is factored in full.
FACTOR_TRIAL_BUDGET = 1_000_000

# The entry cap of a Cartan-Dieudonne walk on a matrix not yet certified:
# WALK_CAP_FACTOR times the input's bit length plus WALK_CAP_SLACK bits.
WALK_CAP_FACTOR = 2
WALK_CAP_SLACK = 64


@dataclass(frozen=True)
class Isometry:
    """A rational matrix g = num/den with g^T.gram.g = gram, checked when
    g is made.

    num is an integer rank x rank matrix and den > 0 with gcd(num, den) =
    1, put so by construction, so equal isometries compare and hash equal.
    Construction refuses a num of another shape (NotSquare), then runs the
    capped walk of :func:`_walk`. A walk that reaches the identity has
    written g as a product of exact reflections, and its rays are kept as
    :attr:`reflection_rays`; otherwise the Gram check num^T.gram.num =
    den^2.gram decides, and den = 0 or a failed check raises
    FormNotPreserved. :func:`product_of_reflections` (and so
    :func:`reflection`) and :func:`compose` build their products from
    exact maps, so :func:`_certified` makes them with neither check. Hence
    :func:`cartan_dieudonne`, :func:`spinor_norm`,
    :func:`in_congruence_subgroup` and :func:`grassmann.translate` run no
    certificate. `matrix` is g as Fractions and `det` is read off num.
    """

    num: IntMat
    den: int
    lattice: QuadLattice

    def __post_init__(self):
        n = self.lattice.rank
        if len(self.num) != n or any(len(row) != n for row in self.num):
            raise NotSquare(f"expected a {n}x{n} matrix")
        if not self.den:
            raise FormNotPreserved("matrix does not preserve the bilinear form")
        num, den = _normalized(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        rays = _walk(self, capped=True)
        if rays is not None:
            object.__setattr__(self, "reflection_rays", _factors(rays, n))
        elif linalg.gram_of(zip(*num), self.lattice) != [[den * den * x for x in row]
                                                          for row in self.lattice.gram]:
            raise FormNotPreserved("matrix does not preserve the bilinear form")

    @cached_property
    def matrix(self) -> Mat:
        """num/den as Fractions, built on first use."""
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.num)

    @cached_property
    def det(self) -> int:
        """det(num) / den^rank, exactly +1 or -1 (Bareiss on num)."""
        return linalg._bareiss_int(self.num) // self.den ** len(self.num)

    @cached_property
    def num_terms(self) -> linalg.Terms:
        """The nonzero terms of each row of num: images read these (a
        rotation of two coordinate planes has at most two per row)."""
        return linalg.nonzero_terms(self.num)

    @cached_property
    def reflection_rays(self) -> tuple[Ray, ...]:
        """The rays (x, gram.x, Q(x)) of the reflections whose product is
        self, in order: kept from construction's walk, or found by the walk
        of :func:`cartan_dieudonne` without a cap on first use."""
        return _factors(_walk(self, capped=False), self.lattice.rank)


def _factors(rays: list[Ray] | None, rank: int) -> tuple[Ray, ...]:
    """A walk's rays, refused unless the walk reached the identity in at
    most 2 * rank reflections, the Cartan-Dieudonne bound."""
    if rays is None:
        raise CertificateFailed("reflection factorization did not reach the identity")
    if len(rays) > 2 * rank:
        raise CertificateFailed(f"{len(rays)} reflections exceed 2 * rank = {2 * rank}")
    return tuple(rays)


def _normalized(num, den: int) -> tuple[IntMat, int]:
    """(num, den) divided by gcd(num, den) and by the sign of den."""
    g = math.gcd(den, *chain.from_iterable(num))
    if den < 0:
        g = -g
    if g == 1:
        return tuple(map(tuple, num)), den
    return tuple(tuple([a // g for a in row]) for row in num), den // g


def isometry_from_matrix(m, l: QuadLattice) -> Isometry:
    """The rational matrix m as the :class:`Isometry` (D.m, D), D the lcm
    of its denominators."""
    return Isometry(*linalg.cleared(m), l)


def _certified(num: IntMat, den: int, l: QuadLattice) -> Isometry:
    """The :class:`Isometry` num/den in lowest terms, made without its
    walk or Gram check: the caller built num/den from maps that preserve
    the form, and nonzero den."""
    g = object.__new__(Isometry)
    num, den = _normalized(num, den)
    vars(g).update(num=num, den=den, lattice=l)
    return g


def compose(g: Isometry, h: Isometry) -> Isometry:
    """g after h, from (num, den) in integers."""
    if g.lattice != h.lattice:
        raise LatticeMismatch("isometries over different lattices")
    cols = tuple(zip(*h.num))
    num = [[sum(map(mul, row, col)) for col in cols] for row in g.num]
    return _certified(num, g.den * h.den, g.lattice)


def _reflection_update(x_ray, num: IntMat) -> tuple[int, list[int]]:
    """(q, c) with R_x.(A/D) = (q.A - x.c^T) / (q.D) for the reflection R_x
    along a ray (x, gram.x, Q(x)): c = 2.(gram.x)^T.A and q = Q, first
    divided by their gcd taken with Q's sign, so q > 0."""
    _, pairing, q = x_ray
    c = [2 * sum(map(mul, pairing, col)) for col in zip(*num)]
    g = math.gcd(q, *c)
    if q < 0:
        g = -g
    if g != 1:
        q //= g
        c = [ck // g for ck in c]
    return q, c


def _apply_update(x, q: int, c: list[int], num: IntMat, den: int) -> tuple[IntMat, int]:
    """(q.A - x.c^T) / (q.D) for A/D = num/den. Rows where x is zero are only
    scaled by q, and kept as they are when q = 1. The result is normalized
    by its full gcd only when its denominator q.D exceeds 1."""
    if q != 1:
        out = [
            [q * a - xi * ck for a, ck in zip(row, c)] if xi else [q * a for a in row]
            for xi, row in zip(x, num)
        ]
        return _normalized(out, q * den)
    out = [[a - xi * ck for a, ck in zip(row, c)] if xi else row for xi, row in zip(x, num)]
    if den > 1:
        return _normalized(out, den)
    return tuple(map(tuple, out)), 1


def product_of_reflections(vectors, l: QuadLattice) -> Isometry:
    """reflection(x_1) . ... . reflection(x_k) for anisotropic x_i: from the
    identity, each factor right to left is applied by the walk's two steps
    (:func:`_reflection_update`, :func:`_apply_update`), and the product
    is made by :func:`_certified`."""
    num, den = _identity(l.rank), 1
    for v in reversed(list(vectors)):
        x_ray = ray(cleared(v, l)[0], l)
        if x_ray[2] == 0:
            raise IsotropicVector(f"cannot reflect along isotropic vector {linalg.as_vector(v)}")
        q, c = _reflection_update(x_ray, num)
        num, den = _apply_update(x_ray[0], q, c, num, den)
    return _certified(num, den, l)


def reflection(x, l: QuadLattice) -> Isometry:
    """The reflection along an anisotropic vector: z -> z - 2(z.x)/(x.x) x."""
    return product_of_reflections([x], l)


def cartan_dieudonne(g: Isometry) -> list[tuple[int, ...]]:
    """Factor g into reflections.

    Returns vectors x_1..x_k so that reflection(x_1) . ... . reflection(x_k)
    equals g exactly (matrix product in list order), with k <= 2*rank. The
    empty list is returned exactly for the identity. A reflection depends
    only on its line, so each x_i is the primitive integer vector on it.

    Walks the lattice's `orthogonal_rays`, the primitive rows b of its
    congruence: either one reflection (along g(b)-b when that vector is
    anisotropic) or two (along g(b)+b and then b, the classical workaround
    when g(b)-b is isotropic) restores b without disturbing the vectors
    already fixed. With the current map A/D, g(b) -+ b is on the line of
    the integer vector A.b -+ D.b, and A.b reads A at b's nonzero terms.
    The walk stops once its map is the identity, since every later ray
    would add no reflection.

    g preserves the form (see :class:`Isometry`), so the walk certifies
    nothing here. It runs at most once per object: its rays are
    :attr:`Isometry.reflection_rays`, kept from the capped walk of g's
    construction or else walked without a cap on first use, and
    :func:`spinor_norm` reads them too.
    """
    return [x for x, _, _ in g.reflection_rays]


def _walk(g: Isometry, capped: bool) -> list[Ray] | None:
    """The rays (x, gram.x, Q(x)) of :func:`cartan_dieudonne`'s walk on g,
    in order, or None when the walk does not end at the identity. The walk
    stops at the first ray that finds its running map num/den already the
    identity.

    capped (g not yet known to preserve the form): the walk also stops, with
    None, at an isotropic plus-ray, which only a non-isometry meets, and
    once an entry of its running map num/den outgrows the cap of
    WALK_CAP_FACTOR times the input's bit length plus WALK_CAP_SLACK bits.
    num's entries are followed by the O(rank) bound of :func:`_entry_bound`;
    only a bound past the cap is checked against the entries themselves.
    """
    l = g.lattice
    num, den = g.num, g.den
    identity = _identity(l.rank)
    rays = []
    if capped:
        bound = max(map(abs, chain.from_iterable(num)), default=0)
        cap = 1 << (WALK_CAP_FACTOR * max(bound, den).bit_length() + WALK_CAP_SLACK)
    for b_ray, terms in l.orthogonal_rays:
        if den == 1 and num == identity:
            break
        image = linalg.times_terms(num, terms)
        w = image[:]
        for j, v in terms:
            w[j] -= den * v
        if not any(w):
            continue
        line = ray(w, l)
        if line[2]:
            steps = (line,)
        else:
            # for an isometry q(u+b) = 4 q(b) != 0 when q(u-b) = 0, and
            # R^{u+b} sends u to -b
            for j, v in terms:
                image[j] += den * v
            plus = ray(image, l)
            if not plus[2]:
                return None
            steps = (plus, b_ray)
        for x_ray in steps:
            q, c = _reflection_update(x_ray, num)
            new_num, new_den = _apply_update(x_ray[0], q, c, num, den)
            if capped:
                bound = _entry_bound(bound, x_ray[0], q, c, den, new_den)
                if bound > cap or new_den > cap:
                    bound = max(map(abs, chain.from_iterable(new_num)))
                    if bound > cap or new_den > cap:
                        return None
            num, den = new_num, new_den
            rays.append(x_ray)
    return rays if den == 1 and num == identity else None


def _entry_bound(bound: int, x, q: int, c: list[int], den: int, new_den: int) -> int:
    """A bound on the entries of the num that _apply_update(x, q, c, num,
    den) returns over new_den, from a bound on num's: each entry of
    q.num - x.c^T is at most q.bound + |x|.|c|, and the result is that
    divided by the gcd q.den / new_den."""
    return (q * bound + max(map(abs, x)) * max(map(abs, c))) * new_den // (q * den)


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
    each prime removed. A cofactor with three or more large prime factors
    would keep the search going for ever, so after FACTOR_TRIAL_BUDGET
    divisors it raises BudgetExceeded instead of returning a class it has
    not certified.
    """
    if n == 0:
        raise ValueError("0 has no square class")
    sign = -1 if n < 0 else 1
    n = abs(n)
    if _is_square(n):
        return sign
    out = 1
    d = 2
    trials = 0
    while d * d * d <= n:
        if trials == FACTOR_TRIAL_BUDGET:
            raise BudgetExceeded(
                f"the square class of a {n.bit_length()}-bit cofactor needs more than "
                f"{FACTOR_TRIAL_BUDGET} trial divisions"
            )
        trials += 1
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


def spinor_norm(g: Isometry) -> SquareClass:
    """Product of the self-pairings over g's reflection factorization, mod
    squares: the Qs of :attr:`Isometry.reflection_rays`, the walk of
    :func:`cartan_dieudonne` (run here if g holds no rays yet).

    Independent of the factorization; the identity (empty product) gets the
    trivial class (+1, +1). Q of a vector and Q of the primitive integer
    vector on its line differ by a rational square, so the product runs
    over the integer Qs.
    """
    return square_class(Fraction(math.prod(q for _, _, q in g.reflection_rays)))


def in_congruence_subgroup(g: Isometry, modulus: int) -> bool:
    """True iff g is integral, det +1, and congruent to the identity mod
    modulus. g preserves the form: its :class:`Isometry` was checked when
    it was made."""
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    if g.den != 1:
        raise NonIntegralMatrix("congruence membership needs integer entries")
    if g.det != 1:
        raise DetMinusOne("congruence subgroups sit inside the determinant-one group")
    return all(
        (a - (i == j)) % modulus == 0
        for i, row in enumerate(g.num)
        for j, a in enumerate(row)
    )
