"""Output checks made apart from geocycle.

Every check recomputes what the program printed with code of its own
(closed forms, Fraction elimination, counting by convolution) or tests a
property the output must have. None of them imports geocycle, so a fault in
the program cannot hide behind the same fault in its checker. A check
raises CheckFailed with a reason; returning means the output is accepted.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Edges of the E8 Dynkin diagram in Bourbaki numbering: the chain
# 1-3-4-5-6-7-8 with node 2 on node 4. The K3 lattice is H+H+H+(-E8)+(-E8)
# in this order, which is the convention the CLI documents.
E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))
K3_E8_BLOCK_OFFSET = 6  # coordinates of the block named e8:1


class CheckFailed(Exception):
    """The program's output contradicts an independent computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ------------------------------------------------------------ exact helpers


def neg_e8_gram() -> list[list[int]]:
    edges = {(i - 1, j - 1) for i, j in E8_EDGES}
    edges |= {(j, i) for i, j in edges}
    return [[-2 if i == j else (1 if (i, j) in edges else 0) for j in range(8)] for i in range(8)]


def k3_gram() -> list[list[int]]:
    blocks = [[[0, 1], [1, 0]]] * 3 + [neg_e8_gram()] * 2
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def form(gram, x, y):
    """x^T . gram . y."""
    return sum(xi * g * yj for xi, row in zip(x, gram) if xi for g, yj in zip(row, y) if g and yj)


def det(rows) -> Fraction:
    """Determinant by Fraction elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def same_span(a, b) -> bool:
    return rank(a) == rank(b) == rank(list(a) + list(b))


def is_rational_square(x: Fraction) -> bool:
    if x <= 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


# -------------------------------------------------------------- arrange


def _bpq_form(p, x, y):
    return sum(a * b for a, b in zip(x[:p], y[:p])) - sum(a * b for a, b in zip(x[p:], y[p:]))


def _rotation_powers(c: Fraction, s: Fraction, n: int) -> list[tuple[Fraction, Fraction]]:
    """(cos, sin) of k times the rotation angle for k = 0..n."""
    out = [(Fraction(1), Fraction(0))]
    for _ in range(n):
        ck, sk = out[-1]
        out.append((ck * c - sk * s, sk * c + ck * s))
    return out


def _rotate(vec, p, cs):
    """Apply the rotation (cos, sin) = cs to <e_1, e_2> and <f_1, f_2>."""
    ck, sk = cs
    out = list(vec)
    for base in (0, p):
        x, y = vec[base], vec[base + 1]
        out[base], out[base + 1] = ck * x - sk * y, sk * x + ck * y
    return out


def _unit(i, dim):
    return [Fraction(int(j == i)) for j in range(dim)]


def arrangement_closed_form(p, q, n, m, boost, rotation):
    """Tags of the (n+1)x(n+1) verdict table and the diagonal points, by
    the closed form: v-perp meets a hyperbolic block <x, y> in the line
    B(v,y)x - B(v,x)y, which is Degenerate when both pairings vanish and
    positive iff |B(v,y)| > |B(v,x)| (here Q(x) = 1, Q(y) = -1, B(x,y) = 0).

    Rows are hyperplanes H_l = R^l(v), columns flats F_k = R^k(F_0); the
    rotation R is an isometry, so cell (l, k) only depends on k - l.
    Returns (tags, normals, diagonal lines)."""
    dim = p + q
    a, b = boost
    grow, shrink = (a + b) ** m, (a - b) ** m
    a_m, b_m = (grow + shrink) / 2, (grow - shrink) / 2
    v = [Fraction(0)] * dim
    v[0], v[p] = b_m, a_m
    for j in range(1, p):
        v[p + j] = Fraction(1)
    powers = _rotation_powers(rotation[0], rotation[1], n)
    blocks = [(_unit(i, dim), _unit(p + i, dim)) for i in range(p)]

    def cell(d):
        cs = powers[abs(d)] if d >= 0 else (powers[-d][0], -powers[-d][1])
        tag = "Point"
        for x, y in blocks:
            beta = _bpq_form(p, v, _rotate(x, p, cs))
            alpha = _bpq_form(p, v, _rotate(y, p, cs))
            if alpha == 0 and beta == 0:
                return "Degenerate"
            if not abs(alpha) > abs(beta):
                tag = "Empty"
        return tag

    by_offset = {d: cell(d) for d in range(-n, n + 1)}
    tags = [[by_offset[k - l] for k in range(n + 1)] for l in range(n + 1)]
    normals = [_rotate(v, p, powers[k]) for k in range(n + 1)]
    lines = []
    for k in range(n + 1):
        rows = []
        for x, y in blocks:
            xk, yk = _rotate(x, p, powers[k]), _rotate(y, p, powers[k])
            alpha, beta = _bpq_form(p, normals[k], yk), _bpq_form(p, normals[k], xk)
            rows.append([alpha * xi - beta * yi for xi, yi in zip(xk, yk)])
        lines.append(rows)
    return tags, normals, lines, (a_m, b_m), powers


def check_arrange(text: str, p: int, q: int, n: int) -> None:
    doc = json.loads(text)
    require((doc["p"], doc["q"], doc["n"]) == (p, q, n), "echoed p, q, n differ from the input")
    boost = tuple(Fraction(x) for x in doc["boost"])
    rotation = tuple(Fraction(x) for x in doc["rotation"])
    m = doc["m"]
    tags, normals, lines, (a_m, b_m), powers = arrangement_closed_form(p, q, n, m, boost, rotation)
    require(doc["matrix"] == tags, "a verdict tag differs from the closed form")
    require(doc["lower_triangular"] is True and doc["shift_consistent"] is True,
            "lower_triangular or shift_consistent is not true")
    lower, upper = -(a_m + b_m), -(a_m - b_m)
    for k in range(1, n + 1):
        ck, sk = powers[k]
        require(ck != 0 and lower <= sk / ck <= upper,
                f"the tangent inequality fails at k={k}")
    points = doc["diagonal_points"]
    require(len(points) == n + 1, f"{len(points)} diagonal points for n={n}")
    for k, point in enumerate(points):
        basis = [[Fraction(x) for x in row] for row in point["basis"]]
        require(point["ambient"] == p + q and len(basis) == p, f"point {k} has the wrong shape")
        gram = [[_bpq_form(p, x, y) for y in basis] for x in basis]
        require(all(det([r[:i] for r in gram[:i]]) > 0 for i in range(1, p + 1)),
                f"point {k} is not positive definite")
        require(all(_bpq_form(p, row, normals[k]) == 0 for row in basis),
                f"point {k} is not orthogonal to its hyperplane's normal")
        require(same_span(basis, lines[k]), f"point {k} is not the sum of its flat's lines")


# ---------------------------------------------------------------- spinor


def check_spinor(text: str, norm_product: Fraction, reflections: int) -> None:
    """The printed class times the product of the construction's
    self-pairings is a rational square, and the printed reflection count is
    at most 2*rank with the construction's parity (det = (-1)^count)."""
    doc = json.loads(text)
    cls, sign, count = doc["class"], doc["real_sign"], doc["reflections"]
    require(isinstance(cls, int) and cls != 0, "class is not a nonzero integer")
    require(sign == (1 if cls > 0 else -1), "real_sign disagrees with the class")
    require(is_rational_square(cls * norm_product), "class is not the spinor norm of the input")
    require(0 <= count <= 44, f"{count} reflections on rank 22")
    require(count % 2 == reflections % 2, "reflection count has the wrong parity")


# ----------------------------------------------------------------- roots


def check_root_list(text: str, gram, bound: int, expected_count: int, support=None) -> None:
    roots = json.loads(text)
    dim = len(gram)
    require(len(roots) == expected_count, f"{len(roots)} roots, expected {expected_count}")
    tuples = [tuple(r) for r in roots]
    require(all(len(r) == dim and all(isinstance(x, int) for x in r) for r in tuples),
            "a root is not an integer vector of the lattice's rank")
    require(tuples == sorted(set(tuples)), "roots are not distinct and sorted")
    require(all(abs(x) <= bound for r in tuples for x in r), "a root leaves the coordinate box")
    if support is not None:
        require(all(x == 0 for r in tuples for i, x in enumerate(r) if i not in support),
                "a root leaves its block")
    require(all(form(gram, r, r) == -2 for r in tuples), "a vector has self-pairing other than -2")


def bpq_root_count(p: int, q: int, bound: int) -> int:
    """Vectors in the box [-bound, bound]^(p+q) with x.x - y.y = -2, counted
    by convolving the distribution of one square."""
    one = {}
    for x in range(-bound, bound + 1):
        one[x * x] = one.get(x * x, 0) + 1

    def power(k):
        dist = {0: 1}
        for _ in range(k):
            nxt = {}
            for s, c in dist.items():
                for t, d in one.items():
                    nxt[s + t] = nxt.get(s + t, 0) + c * d
            dist = nxt
        return dist

    pos, neg = power(p), power(q)
    return sum(c * neg.get(s + 2, 0) for s, c in pos.items())


# ------------------------------------------------------------ verify-all

VERIFY_CHECKS = (
    "sign_claim", "arrangement_pattern", "inequality_implies_empty", "stabilizer_claim",
    "spinor_norm", "root_enumeration", "lattice_classification", "exact_linear_algebra",
)


def check_verify_all(text: str) -> None:
    doc = json.loads(text)
    checks = {c["name"]: c for c in doc["checks"]}
    require(sorted(checks) == sorted(VERIFY_CHECKS), "the suite's check names changed")
    require(doc["all_ok"] is True and all(c["ok"] for c in checks.values()), "a check failed")
    require(checks["sign_claim"]["detail"]["cases"] == 525, "sign_claim ran other than 525 cases")
    require(checks["root_enumeration"]["detail"]["e8_count"] == 240, "E8 root count is not 240")
    require(checks["inequality_implies_empty"]["detail"]["combos"] == 20, "not 20 combos")
    stab = checks["stabilizer_claim"]["detail"]
    require(stab["strong_cases"] == 100 and stab["degenerate_cases"] == 5,
            "stabilizer case counts are not 100 and 5")


def without_timings(text: str) -> str:
    """verify-all prints wall times inside its document; drop them so that
    two runs of the same seed compare equal."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if not k.endswith("elapsed_ms")}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(json.loads(text)), sort_keys=True)
