"""Families of flats and hyperplanes with a certified intersection pattern.

A boost along the first hyperbolic block and a rational rotation mixing the
first two positive and first two negative directions generate, for suitable
parameters, a family whose flat-vs-hyperplane intersection matrix is lower
triangular with points on the diagonal. The inequality controlling emptiness
is evaluated as an exact rational comparison: angles never appear, only
Pythagorean pairs (c, s) and the exact tangent s/c. A rotation's powers are
walked as Gaussian integers: for t = 1/d, r^k = (d - i)^{2k} / (d^2 + 1)^k.
The family is read off that walk, and the search and inequality_details
compare its tangents with -(a+b)^m and -(a-b)^m by one cross-multiplied
integer test, since a_m +- b_m = (a +- b)^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import BudgetExceeded, SearchExhausted
from .grassmann import (
    Flat,
    Hyperplane,
    IntersectionVerdict,
    IntVec,
    hyperplane_new,
    intersect_flat_hyperplane,
)
from .lattices import QuadLattice, primitive, standard_lattice
from .linalg import _identity, frac

# Deterministic scan sequence for the rotation parameter; each t encodes the
# exact rotation pair ((1-t^2)/(1+t^2), -2t/(1+t^2)).
TANGENT_SCAN = tuple(
    Fraction(1, d) for d in (10, 16, 20, 32, 50, 64, 100, 128, 256, 512, 1024)
)
MAX_BOOST_POWER = 64
# arrange's work budget; BENCH_arrange.json's paper_scale times its largest families
MAX_FAMILY_SIZE = 256
MAX_Q = 32
# Budget on entry_bits. A diagonal Point's printed RREF entries reach about
# twice the estimate, so this keeps them far below CPython's 4300-digit
# (14284-bit) limit on int-to-str; every searched family stays under it
# ((m, t) = (8, 1/512) at n = 256 gives 4888).
MAX_ENTRY_BITS = 5120


def entry_bits(n: int, m: int, boost: BoostParams, rotation: RotationPair) -> int:
    """n * bits(D) + m * bits(boost), an estimate of the bit length of a
    family's entries: F_n's rows carry the n-th rotation power, an integer
    matrix over D^n with D the rotation's common denominator, and the
    normal's a_m, b_m grow by about bits(boost), the longest numerator or
    denominator of a and b, per power."""
    h = max(x.bit_length() for f in (boost.a, boost.b) for x in f.as_integer_ratio())
    return n * rotation.cleared[2].bit_length() + m * h


def check_budget(q: int, n: int, m: int, boost: BoostParams, rotation: RotationPair) -> None:
    """Raise BudgetExceeded unless n <= MAX_FAMILY_SIZE, q <= MAX_Q,
    m <= MAX_BOOST_POWER and entry_bits(...) <= MAX_ENTRY_BITS, in that
    order: checked before any power of the boost or the rotation is formed."""
    for name, value, cap in (("n", n, MAX_FAMILY_SIZE), ("q", q, MAX_Q), ("m", m, MAX_BOOST_POWER)):
        if value > cap:
            raise BudgetExceeded(f"arrange takes {name} <= {cap}, got {name} = {value}")
    bits = entry_bits(n, m, boost, rotation)
    if bits > MAX_ENTRY_BITS:
        raise BudgetExceeded(
            f"arrange takes n*bits(rotation denominator) + m*bits(boost) <= {MAX_ENTRY_BITS}, "
            f"got {bits}"
        )


@dataclass(frozen=True)
class BoostParams:
    """Coefficients (a, b) of a hyperbolic boost: a^2 - b^2 = 1, a > b >= 0.

    b = 0 (the identity, a = 1) is allowed so that the zeroth power is
    representable; a family generator must have b > 0.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", frac(self.a))
        object.__setattr__(self, "b", frac(self.b))
        if self.a * self.a - self.b * self.b != 1:
            raise ValueError(f"boost needs a^2 - b^2 = 1, got ({self.a}, {self.b})")
        if not self.a > self.b >= 0:
            raise ValueError(f"boost needs a > b >= 0, got ({self.a}, {self.b})")


def boost_power(base: BoostParams, m: int) -> BoostParams:
    """Coefficients of the m-th power of a boost, by the exact closed form
    a_m = ((a+b)^m + (a-b)^m)/2, b_m = ((a+b)^m - (a-b)^m)/2. BoostParams
    re-checks a_m^2 - b_m^2 = 1 on the result."""
    if m < 0:
        raise ValueError("boost power wants a nonnegative exponent")
    grow = (base.a + base.b) ** m
    shrink = (base.a - base.b) ** m
    return BoostParams((grow + shrink) / 2, (grow - shrink) / 2)


@dataclass(frozen=True)
class RotationPair:
    """An exact point (c, s) on the unit circle; the family generator uses
    s < 0 (small clockwise angle), but powers may land anywhere."""

    c: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", frac(self.c))
        object.__setattr__(self, "s", frac(self.s))
        if self.c * self.c + self.s * self.s != 1:
            raise ValueError(f"rotation needs c^2 + s^2 = 1, got ({self.c}, {self.s})")

    @property
    def cleared(self) -> tuple[int, int, int]:
        """(c*D, s*D, D) with D the common denominator of c and s, so that
        r^k = (c*D + s*D*i)^k / D^k."""
        d = math.lcm(self.c.denominator, self.s.denominator)
        return int(self.c * d), int(self.s * d), d


def _tangent_pair(t: Fraction) -> tuple[int, int, int]:
    """rotation_from_tangent(t).cleared without Fractions: for t = u/v, (v^2 - u^2,
    -2uv, u^2 + v^2) over their content, 2 when u and v are both odd, else 1."""
    u, v = t.as_integer_ratio()
    g = 2 if u * v % 2 else 1
    return (v * v - u * u) // g, -2 * u * v // g, (u * u + v * v) // g


def rotation_from_tangent(t) -> RotationPair:
    """Rational rotation with tan(angle/2) = -t, i.e. ((1-t^2)/(1+t^2), -2t/(1+t^2))."""
    c, s, d = _tangent_pair(frac(t))
    return RotationPair(Fraction(c, d), Fraction(s, d))


def _rotation_powers(c: int, s: int):
    """(re, im) = (c + s*i)^k for k = 0, 1, 2, ..., so r^k = (re + im*i) / D^k
    for (c, s, D) = r.cleared: one walk, one Gaussian product a step."""
    re, im = 1, 0
    while True:
        yield re, im
        re, im = re * c - im * s, im * c + re * s


@dataclass(frozen=True)
class ArrangementSpec:
    """Parameters of one boost/rotation family over diag(+1 x p, -1 x q)."""

    p: int
    q: int
    boost: BoostParams
    m: int
    rotation: RotationPair
    n: int

    def __post_init__(self):
        if not (2 <= self.p <= self.q):
            raise ValueError("the rotation needs p >= 2 and q >= p")
        if self.m < 0 or self.n < 0:
            raise ValueError("m and n must be nonnegative")
        if self.boost.b == 0:
            raise ValueError("the family generator needs a nontrivial boost (b > 0)")
        if not self.rotation.s < 0:
            raise ValueError("the family generator needs s < 0")
        check_budget(self.q, self.n, self.m, self.boost, self.rotation)

    def lattice(self) -> QuadLattice:
        return standard_lattice("bpq", self.p, self.q)


def standard_flat(p: int, q: int) -> Flat:
    """The flat of B(p,q)'s coordinate splitting, <e_i, f_i> of triple (1, 0, -1)
    and rest <f_j>_{j>p}: unit rows are their own RREF rows and orthogonal, so
    no certificate runs. The lattice checks the rank before any row exists."""
    if p > q:
        raise ValueError(f"a standard flat needs p <= q, got p={p}, q={q}")
    l = standard_lattice("bpq", p, q)
    e = _identity(l.rank)
    return Flat(l, tuple((x, y, 1, 0, -1) for x, y in zip(e[:p], e[p:])), e[2 * p:])


def base_hyperplane_normal(spec: ArrangementSpec) -> tuple[Fraction, ...]:
    """The boosted negative vector b_m e_1 + a_m f_1 + f_2 + ... + f_p."""
    bp, p = boost_power(spec.boost, spec.m), spec.p
    zero, one = Fraction(0), Fraction(1)
    return (bp.b, *[zero] * (p - 1), bp.a, *[one] * (p - 1), *[zero] * (spec.q - p))


def _power_image(x: IntVec, re: int, im: int, dk: int, p: int) -> IntVec:
    """primitive(D^k r^k x), r^k = (re + im*i)/D^k: re + im*i times (x_0, x_1)
    and (x_p, x_{p+1}) as complex numbers, D^k times every other coordinate."""
    y = [a * dk for a in x]
    for i in (0, p):
        y[i], y[i + 1] = x[i] * re - x[i + 1] * im, x[i] * im + x[i + 1] * re
    return primitive(y)


def build_family(spec: ArrangementSpec) -> tuple[list[Flat], list[Hyperplane]]:
    """Flats F_k = r^k F_0 and hyperplanes H_k = r^k H_0 for 0 <= k <= n, r
    the generator rotation, read off one walk over its Gaussian powers. As
    for a translate, the isometry r^k carries the certificates of F_0 and
    H_0. It moves only e_1, e_2, f_1 and f_2, so F_k shares F_0's rest and
    later blocks, and gives both rows of a moved block one content, so the
    block keeps its Gram triple."""
    base, p = standard_flat(spec.p, spec.q), spec.p
    h0 = hyperplane_new(base_hyperplane_normal(spec), spec.lattice())
    flats, hypers = [base], [h0]
    moved, kept = base.int_blocks[:2], base.int_blocks[2:]
    (c, s, d), dk = spec.rotation.cleared, 1
    for re, im in islice(_rotation_powers(c, s), 1, spec.n + 1):
        dk *= d
        blocks = tuple((_power_image(x, re, im, dk, p), _power_image(y, re, im, dk, p), *gram)
                       for x, y, *gram in moved)
        flats.append(Flat(base.lattice, blocks + kept, base.int_rest))
        hypers.append(Hyperplane(h0.lattice, _power_image(h0.normal, re, im, dk, p)))
    return flats, hypers


@dataclass(frozen=True)
class InequalityDetail:
    holds: bool
    pole: bool  # the k-th power lands on a tangent pole (c_k = 0)
    tangent: Fraction | None
    lower: Fraction
    upper: Fraction


def _in_window(tangents, hi: int, lo: int) -> bool:
    """-hi/lo <= im/re <= -lo/hi for every tangent (im, re), re >= 0, with
    hi/lo = (a+b)^m in lowest terms: a_m + b_m = (a+b)^m = hi/lo and
    a_m - b_m = (a-b)^m = lo/hi, as (a+b)(a-b) = 1. Cross-multiplied by
    re, lo, hi; false at a pole (re = 0, im != 0)."""
    return all(-hi * re <= im * lo and im * hi <= -lo * re for im, re in tangents)


def inequality_details(spec: ArrangementSpec, n: int) -> list[InequalityDetail]:
    """Exact evaluation of the emptiness inequality for the k-th rotated flat,
    -(a_m + b_m) <= tan(k*angle) <= -(a_m - b_m), for k = 1..n in one walk
    over the rotation powers, by the search's own integer test."""
    hi, lo = (x**spec.m for x in (spec.boost.a + spec.boost.b).as_integer_ratio())
    lower, upper = Fraction(-hi, lo), Fraction(-lo, hi)
    details = []
    for re, im in islice(_rotation_powers(*spec.rotation.cleared[:2]), 1, n + 1):
        im, re = (im, re) if re >= 0 else (-im, -re)
        holds, tangent = _in_window([(im, re)], hi, lo), Fraction(im, re) if re else None
        details.append(InequalityDetail(holds, not re, tangent, lower, upper))
    return details


@dataclass(frozen=True)
class IntersectionMatrix:
    """Verdict table: rows indexed by hyperplanes, columns by flats."""

    size: int
    verdicts: tuple[tuple[IntersectionVerdict, ...], ...]
    lower_triangular: bool  # Point diagonal and Empty strict upper triangle
    shift_consistent: bool  # verdict(H_l, F_k) matches verdict(H_0, F_{k-l}) for k >= l

    def tags(self) -> list[list[str]]:
        return [[v.tag for v in row] for row in self.verdicts]

    def to_csv(self) -> str:
        return "\n".join(",".join(v.tag[0] for v in row) for row in self.verdicts) + "\n"


def intersection_matrix(spec: ArrangementSpec) -> IntersectionMatrix:
    """Fill the whole verdict table directly, then record whether the
    lower-triangular pattern holds and cross-check the rotation shift
    identity (every entry is still computed, never inferred)."""
    flats, hypers = build_family(spec)
    size = spec.n + 1
    grid = tuple(
        tuple(intersect_flat_hyperplane(flats[col], hypers[row]) for col in range(size))
        for row in range(size)
    )
    lower = all(grid[i][i].tag == "Point" for i in range(size)) and all(
        grid[row][col].tag == "Empty"
        for row in range(size)
        for col in range(row + 1, size)
    )
    shift_ok = all(
        grid[row][col].tag == grid[0][col - row].tag
        for row in range(size)
        for col in range(row, size)
    )
    return IntersectionMatrix(size, grid, lower, shift_ok)


def _negative_tangents(c: int, s: int, limit: int) -> list[tuple[int, int]]:
    """tan(k*angle) = im/re as (im, re), re > 0, for (c + s*i)^k, k = 1, 2, ... while
    it is negative: a pole or sign change makes the inequality fail for every boost."""
    out: list[tuple[int, int]] = []
    for re, im in islice(_rotation_powers(c, s), 1, limit + 1):
        re, im = (re, im) if re > 0 else (-re, -im)
        if re == 0 or im >= 0:
            break
        out.append((im, re))
    return out


def search_parameters(n: int, boost: BoostParams) -> tuple[int, Fraction]:
    """Smallest boost power m and first scan tangent t whose family satisfies
    the emptiness inequality for every k = 1..n. Deterministic; raises
    SearchExhausted when the bounded scan (m <= 64, fixed tangent list)
    contains no witness. The inequality lives in the rotated 2-plane, so
    (m, t) is the same for every signature (p, q)."""
    if n < 1:
        raise ValueError("family size n must be at least 1")
    if boost.b == 0:
        raise ValueError("the family generator needs a nontrivial boost (b > 0)")
    # a walk shorter than n hit a pole or a nonnegative tangent at some k <= n
    walks = [(t, _negative_tangents(*_tangent_pair(t)[:2], n)) for t in TANGENT_SCAN]
    walks = [(t, tangents) for t, tangents in walks if len(tangents) == n]
    gn, gd = (boost.a + boost.b).as_integer_ratio()
    for m in range(1, MAX_BOOST_POWER + 1):
        hi, lo = gn**m, gd**m
        for t, tangents in walks:
            if _in_window(tangents, hi, lo):
                return m, t
    raise SearchExhausted(f"no (m <= {MAX_BOOST_POWER}, t) in the scan grid works for n = {n}")


def arrangement_spec(
    p: int, q: int, n: int, boost: BoostParams, m: int, t
) -> ArrangementSpec:
    return ArrangementSpec(p, q, boost, m, rotation_from_tangent(t), n)


def arrangement_spec_to_dict(spec: ArrangementSpec) -> dict:
    return {
        "p": spec.p,
        "q": spec.q,
        "n": spec.n,
        "m": spec.m,
        "boost": [str(spec.boost.a), str(spec.boost.b)],
        "rotation": [str(spec.rotation.c), str(spec.rotation.s)],
    }


def _spec_pair(d: dict, key: str) -> tuple[Fraction, Fraction]:
    value = d[key]
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"arrangement spec {key} must be a list of two numbers")
    return frac(value[0]), frac(value[1])


def arrangement_spec_from_dict(d: dict) -> ArrangementSpec:
    """Takes an explicit rotation pair or a tangent parameter t, not both."""
    if not isinstance(d, dict):
        raise ValueError("an arrangement spec must be a JSON object")
    missing = [key for key in ("p", "q", "n", "m", "boost") if key not in d]
    if "rotation" not in d and "t" not in d:
        missing.append("rotation or t")
    if missing:
        raise ValueError(f"arrangement spec is missing {', '.join(missing)}")
    if "rotation" in d and "t" in d:
        raise ValueError("arrangement spec gives both rotation and t; give one")
    unknown = sorted(set(d) - {"p", "q", "n", "m", "boost", "rotation", "t"})
    if unknown:
        raise ValueError(f"arrangement spec has unknown keys {', '.join(unknown)}")
    boost = BoostParams(*_spec_pair(d, "boost"))
    if "rotation" in d:
        rotation = RotationPair(*_spec_pair(d, "rotation"))
    else:
        rotation = rotation_from_tangent(frac(d["t"]))
    p, q, m, n = (d[key] for key in ("p", "q", "m", "n"))
    if any(type(x) is not int for x in (p, q, m, n)):  # JSON integers only: no bool, float or string
        raise ValueError(f"arrangement spec p, q, m and n must be integers, got {[p, q, m, n]}")
    return ArrangementSpec(p, q, boost, m, rotation, n)


DEFAULT_BOOST = BoostParams(Fraction(5, 4), Fraction(3, 4))
