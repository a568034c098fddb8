"""Root-vector enumeration and the orthogonality predicates behind the
geometric obstruction classes."""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import AmbientMismatch, BudgetExceeded, NotSpanning, WrongInertia
from .lattices import QuadLattice, eval_form
from .linalg import Mat, Subspace, subspace_sum

# A root vector is an integer coordinate tuple with self-pairing -2.
RootVector = tuple[int, ...]

ROOT_NORM = -2


# Work budget of one enumerate_roots call, in nodes: table entries, nodes of
# the per-block searches, nodes of the join and the roots it emits. Every
# enumeration the tests, demos and benchmark run needs at most 14,336
# (B(2,4) at bound 4), and B(3,5) at bound 3 (202,880 roots) needs 210,237.
# K3 at bound 1 needs far more; it is stopped in well under a second
# instead of holding millions of 22-coordinate roots in memory.
ROOT_NODE_BUDGET = 500_000


class _Budget:
    """Counts the nodes one enumeration has visited against ROOT_NODE_BUDGET."""

    def __init__(self) -> None:
        self.nodes = 0

    def spend(self, k: int = 1) -> None:
        if self.nodes + k > ROOT_NODE_BUDGET:
            raise BudgetExceeded(
                f"root enumeration needs more than {ROOT_NODE_BUDGET} nodes "
                f"(stopped after visiting {self.nodes})"
            )
        self.nodes += k


def _integer_square_forms(gram):
    """Rewrite the form as an integer-weighted sum of squares of integer
    linear forms: W_k * M_k(x)^2 summing to scale * Q(x).

    Derived from exact congruence diagonalization; returns
    (weights, coeff_rows, scale) with everything integral.
    """
    diag, t = linalg.diagonalize_symmetric(gram)
    tinv = linalg.matrix_inverse(t)
    n = len(gram)
    # linear form k has rational coefficients column k of t^{-1}
    weights: list[Fraction] = []
    icoeffs: list[list[int]] = []
    for k in range(n):
        col = [tinv[j][k] for j in range(n)]
        mult = math.lcm(*(c.denominator for c in col))
        icoeffs.append([int(c * mult) for c in col])
        weights.append(diag[k] / (mult * mult))
    scale = math.lcm(*(w.denominator for w in weights))
    int_weights = [int(w * scale) for w in weights]
    return int_weights, icoeffs, scale


def _is_lower_unitriangular_support(icoeffs: list[list[int]]) -> bool:
    # form k may only involve coordinates k..n-1, with a positive leading one
    n = len(icoeffs)
    return all(
        icoeffs[k][k] > 0 and all(icoeffs[k][j] == 0 for j in range(k))
        for k in range(n)
    )


def _enumerate_definite(
    weights, icoeffs, lo: int, hi: int, bound: int, n: int, budget: _Budget
) -> dict[int, list[RootVector]]:
    """Depth-first search down a triangular sum of negative squares for the
    vectors whose value (the sum) lies in [lo, hi], keyed by that value;
    lo <= 0.

    Coordinates are assigned last-to-first; because every weight is negative
    the partial sum only decreases, so each coordinate only takes the values
    that keep it at or above lo, and every prefix below lo is pruned
    exactly.
    """
    found: dict[int, list[RootVector]] = {}
    x = [0] * n
    tails = [0] * n  # known part of each form from already-assigned coordinates

    def descend(idx: int, running: int) -> None:
        budget.spend()
        if idx < 0:
            if running <= hi:
                found.setdefault(running, []).append(tuple(x))
            return
        lead = icoeffs[idx][idx]
        w = weights[idx]
        tail = tails[idx]
        # nxt >= lo iff |lead * value + tail| <= r, and lead > 0
        r = math.isqrt((running - lo) // -w)
        first = max(-bound, -((r + tail) // lead))
        last = min(bound, (r - tail) // lead)
        for value in range(first, last + 1):
            m = lead * value + tail
            nxt = running + w * m * m
            x[idx] = value
            for k in range(idx):
                tails[k] += icoeffs[k][idx] * value
            descend(idx - 1, nxt)
            for k in range(idx):
                tails[k] -= icoeffs[k][idx] * value
        x[idx] = 0

    descend(n - 1, 0)
    return found


def _enumerate_box(
    weights, icoeffs, lo: int, hi: int, bound: int, n: int, budget: _Budget
) -> dict[int, list[RootVector]]:
    """General fallback: scan the coordinate box first-to-last for the
    vectors whose value lies in [lo, hi], pruning with exact interval bounds
    on each squared form over the unassigned tail."""
    suffix_abs = [
        [sum(abs(c) for c in row[t:]) for t in range(n + 1)] for row in icoeffs
    ]
    found: dict[int, list[RootVector]] = {}
    x = [0] * n
    fixed = [0] * n  # value of each form on the assigned prefix

    def reachable(depth: int) -> tuple[int, int]:
        lo_total = hi_total = 0
        for k in range(n):
            slack = bound * suffix_abs[k][depth]
            lo_m, hi_m = fixed[k] - slack, fixed[k] + slack
            if lo_m <= 0 <= hi_m:
                sq_min, sq_max = 0, max(lo_m * lo_m, hi_m * hi_m)
            else:
                a, b = lo_m * lo_m, hi_m * hi_m
                sq_min, sq_max = min(a, b), max(a, b)
            w = weights[k]
            if w >= 0:
                lo_total += w * sq_min
                hi_total += w * sq_max
            else:
                lo_total += w * sq_max
                hi_total += w * sq_min
        return lo_total, hi_total

    def descend(depth: int) -> None:
        budget.spend()
        reach_lo, reach_hi = reachable(depth)
        if reach_hi < lo or reach_lo > hi:
            return
        if depth == n:
            # every form is fixed here, so reach_lo == reach_hi is the value
            found.setdefault(reach_lo, []).append(tuple(x))
            return
        for value in range(-bound, bound + 1):
            x[depth] = value
            for k in range(n):
                fixed[k] += icoeffs[k][depth] * value
            descend(depth + 1)
            for k in range(n):
                fixed[k] -= icoeffs[k][depth] * value
        x[depth] = 0

    descend(0)
    return found


def _orthogonal_blocks(gram) -> list[list[int]]:
    """Connected components of the Gram matrix's nonzero pattern, each as its
    sorted coordinates, in order of their first coordinate."""
    n = len(gram)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, block = [start], []
        while stack:
            i = stack.pop()
            block.append(i)
            for j in range(n):
                if gram[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def _hyperbolic_entry(gram) -> int:
    """c when the block is [[0, c], [c, 0]], else 0."""
    if len(gram) == 2 and gram[0][0] == gram[1][1] == 0:
        return gram[0][1]
    return 0


def _block_range(gram, forms, bound: int) -> tuple[int, int]:
    """An interval holding the value of every vector of the block in the box."""
    if len(gram) == 1:
        top = gram[0][0] * bound * bound
        return min(0, top), max(0, top)
    c = _hyperbolic_entry(gram)
    if c:
        top = 2 * abs(c) * bound * bound
        return -top, top
    weights, icoeffs, scale = forms
    lo = hi = 0
    for w, row in zip(weights, icoeffs):
        extreme = w * (bound * sum(abs(x) for x in row)) ** 2
        if w < 0:
            lo += extreme
        else:
            hi += extreme
    return -(-lo // scale), hi // scale


def _block_table(
    gram, forms, lo: int, hi: int, bound: int, budget: _Budget
) -> dict[int, list[RootVector]]:
    """The block's vectors in the box whose value lies in [lo, hi], keyed by
    that value."""
    table: dict[int, list[RootVector]] = {}
    if len(gram) == 1:
        a = gram[0][0]
        # |a| x^2 <= max(|lo|, |hi|) for every x in the window
        top = min(bound, math.isqrt(max(-lo, hi) // abs(a)))
        budget.spend(2 * top + 1)
        for x in range(-top, top + 1):
            v = a * x * x
            if lo <= v <= hi:
                table.setdefault(v, []).append((x,))
        return table
    c = _hyperbolic_entry(gram)
    if c:
        # for each x the y with lo <= 2c*x*y <= hi form an interval; unless
        # the window holds 0, y != 0 and so 2|c x| <= max(|lo|, |hi|)
        top = bound if lo <= 0 <= hi else min(bound, max(-lo, hi) // (2 * abs(c)))
        budget.spend(2 * top + 1)
        for x in range(-top, top + 1):
            k = 2 * c * x
            if k == 0:
                ys = range(-bound, bound + 1) if lo <= 0 <= hi else range(0)
            elif k > 0:
                ys = range(max(-bound, -(-lo // k)), min(bound, hi // k) + 1)
            else:
                ys = range(max(-bound, -(-hi // k)), min(bound, lo // k) + 1)
            budget.spend(len(ys))
            for y in ys:
                table.setdefault(k * y, []).append((x, y))
        return table
    weights, icoeffs, scale = forms
    n = len(gram)
    if _is_lower_unitriangular_support(icoeffs) and (
        all(w < 0 for w in weights) or all(w > 0 for w in weights)
    ):
        # the triangular search wants negative weights: negate a positive block
        sign = 1 if weights[0] < 0 else -1
        found = _enumerate_definite(
            [sign * w for w in weights], icoeffs,
            min(sign * lo, sign * hi) * scale, max(sign * lo, sign * hi) * scale,
            bound, n, budget,
        )
        return {sign * v // scale: vs for v, vs in found.items()}
    found = _enumerate_box(weights, icoeffs, lo * scale, hi * scale, bound, n, budget)
    return {v // scale: vs for v, vs in found.items()}


def _join(blocks, tables, target: int, n: int, budget: _Budget) -> list[RootVector]:
    """Every choice of one vector per block whose values sum to the target.

    A depth-first search over the blocks' values keeps only the values that
    the later blocks can complete to the target (suffix[k] is the set of
    sums the blocks k.. can reach), so every node it visits leads to at
    least one root; the roots are the products of the chosen values' lists.
    """
    suffix = [{0}]
    for table in reversed(tables):
        budget.spend(len(table) * len(suffix[0]))
        suffix.insert(0, {v + s for v in table for s in suffix[0]})
    products: list[list[list[RootVector]]] = []
    chosen: list[list[RootVector]] = []

    def descend(k: int, remaining: int) -> None:
        if k == len(tables):
            budget.spend(math.prod(len(vs) for vs in chosen))
            products.append(list(chosen))
            return
        for v, vs in tables[k].items():
            if remaining - v in suffix[k + 1]:
                budget.spend()
                chosen.append(vs)
                descend(k + 1, remaining - v)
                chosen.pop()

    if target in suffix[0]:
        descend(0, target)
    order = [i for block in blocks for i in block]
    # blocks whose coordinates interleave: put each coordinate back in place
    scatter = None
    if order != list(range(n)):
        scatter = operator.itemgetter(*sorted(range(n), key=order.__getitem__))
    found = []
    for lists in products:
        for parts in itertools.product(*lists):
            flat = tuple(itertools.chain.from_iterable(parts))
            found.append(scatter(flat) if scatter else flat)
    found.sort()
    return found


def enumerate_roots(l: QuadLattice, bound: int) -> list[RootVector]:
    """All integer vectors with coordinates in [-bound, bound] and
    self-pairing -2, in lexicographic order.

    The Gram matrix splits into orthogonal blocks (the connected components
    of its nonzero pattern; their coordinates may interleave), and Q is the
    sum of the blocks' values. Each block gets a table from its value to its
    vectors in the box, restricted to the window of values the other blocks
    can still complete to -2: a·x² for rank 1, the y-interval of each x for
    [[0, c], [c, 0]], the triangular completed-squares search for other
    definite blocks and a pruned box scan for the rest. A join over the
    blocks' values then visits only nodes that extend to a root, so the
    cost is the tables plus O(rank · roots). All of it is exact.

    Raises BudgetExceeded once the tables, searches, join and roots together
    need more than ROOT_NODE_BUDGET nodes.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    budget = _Budget()
    blocks = _orthogonal_blocks(l.gram)
    grams = [[[l.gram[i][j] for j in block] for i in block] for block in blocks]
    forms = [
        None if len(g) == 1 or _hyperbolic_entry(g) else _integer_square_forms(g)
        for g in grams
    ]
    ranges = [_block_range(g, f, bound) for g, f in zip(grams, forms)]
    tables = []
    for k, (g, f) in enumerate(zip(grams, forms)):
        others_lo = sum(r[0] for r in ranges) - ranges[k][0]
        others_hi = sum(r[1] for r in ranges) - ranges[k][1]
        lo = max(ranges[k][0], ROOT_NORM - others_hi)
        hi = min(ranges[k][1], ROOT_NORM - others_lo)
        table = _block_table(g, f, lo, hi, bound, budget) if lo <= hi else {}
        if not table:
            return []
        ranges[k] = (min(table), max(table))
        tables.append(table)
    return _join(blocks, tables, ROOT_NORM, l.rank, budget)


def is_root(l: QuadLattice, coords: Sequence[int]) -> bool:
    return eval_form(l, coords, coords) == ROOT_NORM


def plane_orthogonal_to(u: Subspace, delta, l: QuadLattice) -> bool:
    """Containment test: does the plane sit inside the vector's orthogonal
    complement? True iff every basis vector pairs to zero with it."""
    if u.ambient != l.rank:
        raise AmbientMismatch(f"plane ambient {u.ambient}, lattice rank {l.rank}")
    d = linalg.as_vector(delta)
    return all(eval_form(l, row, d) == 0 for row in u.basis)


def any_root_orthogonal(
    u: Subspace, roots: Sequence[RootVector], l: QuadLattice
) -> Optional[RootVector]:
    """First root (in list order) whose hyperplane contains the plane, else
    None; None means the plane avoids the truncated root-hyperplane union."""
    for root in roots:
        if plane_orthogonal_to(u, root, l):
            return root
    return None


def inner_product(rows) -> Mat:
    """Validate a symmetric positive-definite rational matrix."""
    beta = linalg.as_matrix(rows)
    n = len(beta)
    if any(len(r) != n for r in beta):
        raise ValueError("inner product matrix must be square")
    if beta != linalg.transpose(beta):
        raise ValueError("inner product matrix must be symmetric")
    sig = linalg.inertia(beta)
    if sig != (n, 0, 0):
        raise WrongInertia(f"inner product must be positive definite, got inertia {sig}")
    return beta


def unit_volume_scale(beta: Mat) -> float:
    """Display-only multiplier carrying beta to determinant 1.

    Exact arithmetic cannot take n-th roots, and every predicate here is
    scale-invariant anyway; this float is for presentation.
    """
    d = linalg.det(beta)
    return float(d) ** (-1.0 / len(beta))


def beta_orthogonal(beta: Mat, p_sub: Subspace, l_sub: Subspace) -> bool:
    """Direct orthogonality test of a complementary (hyperplane, line) pair
    under a given inner product."""
    if p_sub.ambient != l_sub.ambient or p_sub.ambient != len(beta):
        raise AmbientMismatch("inner product and subspaces must share one ambient space")
    if l_sub.dim != 1:
        raise NotSpanning(f"the line factor must be one-dimensional, got {l_sub.dim}")
    if p_sub.dim + 1 != p_sub.ambient or subspace_sum(p_sub, l_sub).dim != p_sub.ambient:
        raise NotSpanning("the two factors must be complementary")
    products = linalg.mat_mul(
        linalg.mat_mul(p_sub.basis, beta), linalg.transpose(l_sub.basis)
    )
    return all(all(x == 0 for x in row) for row in products)
