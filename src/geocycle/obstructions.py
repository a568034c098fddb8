"""Root-vector enumeration and the orthogonality predicates behind the
geometric obstruction classes."""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence

from . import linalg
from .errors import AmbientMismatch, BudgetExceeded
from .lattices import QuadLattice, cleared, primitive_content
from .linalg import Subspace

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
# Odd primes below 100: a diagonal form is tested mod each that divides a weight.
LOCAL_PRIMES = tuple(p for p in range(3, 100, 2) if all(p % d for d in range(3, p, 2)))


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

    Over the lattice's orthogonal basis b_k, Q(x) = sum B(b_k, x)^2 / Q(b_k):
    M_k is primitive(G.b_k), G.b_k = g_k M_k, and W_k / scale is
    g_k^2 / Q(b_k). Returns (weights, coeff_rows, scale), all integral.
    """
    weights = []  # g_k^2 / Q(b_k) in lowest terms, as (numerator, denominator)
    rows = []
    for (_, pairing, q), _ in QuadLattice(tuple(map(tuple, gram))).orthogonal_rays:
        row, g = primitive_content(pairing)
        h = math.gcd(g * g, q)
        weights.append((g * g // h, q // h))
        rows.append(list(row))
    scale = math.lcm(*(den for _, den in weights))
    return [num * scale // den for num, den in weights], rows, scale


def _enumerate_definite(
    weights, icoeffs, lo: int, hi: int, bound: int, n: int, budget: _Budget
) -> dict[int, list[RootVector]]:
    """Depth-first search down a triangular sum of squares whose weights
    share one sign, for the vectors whose value (the sum) lies in [lo, hi],
    keyed by that value.

    Coordinates are assigned last-to-first. The partial sum only moves away
    from 0 towards the window's far end (hi for positive weights, lo for
    negative ones), so each coordinate only takes the values that keep it
    within that end, and every prefix past it is pruned exactly; the near
    end is tested at the leaves. A node's children are charged to the
    budget before any of them is visited.
    """
    positive = weights[0] > 0
    found: dict[int, list[RootVector]] = {}
    x = [0] * n
    tails = [0] * n  # known part of each form from already-assigned coordinates
    # the earlier forms that involve each coordinate, as (k, coefficient)
    columns = [[(k, icoeffs[k][idx]) for k in range(idx) if icoeffs[k][idx]] for idx in range(n)]

    def descend(idx: int, running: int) -> None:
        if idx < 0:
            if lo <= running if positive else running <= hi:
                found.setdefault(running, []).append(tuple(x))
            return
        lead = icoeffs[idx][idx]
        tail = tails[idx]
        # the next sum stays within the far end iff |lead * value + tail| <= r,
        # and lead > 0
        w = weights[idx]
        r = math.isqrt((hi - running if positive else running - lo) // abs(w))
        values = range(max(-bound, -((r + tail) // lead)), min(bound, (r - tail) // lead) + 1)
        budget.spend(max(0, values.stop - values.start))  # len() stops at sys.maxsize
        column = columns[idx]
        for value in values:
            m = lead * value + tail
            x[idx] = value
            for k, c in column:
                tails[k] += c * value
            descend(idx - 1, running + w * m * m)
            for k, c in column:
                tails[k] -= c * value
        x[idx] = 0

    if (hi if positive else -lo) >= 0:  # else even the zero vector is past the far end
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
    c = _hyperbolic_entry(gram)
    if c:
        # for each x the y with lo <= 2c*x*y <= hi form an interval; unless
        # the window holds 0, y != 0 and so 2|c x| <= max(|lo|, |hi|)
        table: dict[int, list[RootVector]] = {}
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
            budget.spend(max(0, ys.stop - ys.start))  # len() stops at sys.maxsize
            for y in ys:
                table.setdefault(k * y, []).append((x, y))
        return table
    weights, icoeffs, scale = forms
    # weights of one sign mean a definite block, whose congruence takes no
    # repair: form k starts at coordinate k with a positive entry
    definite = all(w < 0 for w in weights) or all(w > 0 for w in weights)
    search = _enumerate_definite if definite else _enumerate_box
    found = search(weights, icoeffs, lo * scale, hi * scale, bound, len(gram), budget)
    return {v // scale: vs for v, vs in found.items()}


def _join(blocks, tables, target: int, n: int, budget: _Budget) -> list[RootVector]:
    """Every choice of one vector per block whose values sum to the target.

    A depth-first search over the blocks' values keeps only the values that
    the later blocks can complete to the target (suffix[k] is the set of
    sums the blocks k.. can reach), so every node it visits leads to at
    least one root. At a leaf the roots are charged first, then built block
    by block: each partial root is extended by every vector of the next
    chosen list, by tuple concatenation.
    """
    suffix = [{0}]
    for table in reversed(tables):
        budget.spend(len(table) * len(suffix[0]))
        suffix.insert(0, {v + s for v in table for s in suffix[0]})
    order = [i for block in blocks for i in block]
    # blocks whose coordinates interleave: put each coordinate back in place
    scatter = None
    if order != list(range(n)):
        scatter = operator.itemgetter(*sorted(range(n), key=order.__getitem__))
    found: list[RootVector] = []
    chosen: list[list[RootVector]] = []

    def descend(k: int, remaining: int) -> None:
        if k == len(tables):
            budget.spend(math.prod(len(vs) for vs in chosen))
            roots = chosen[0]
            for vs in chosen[1:]:
                roots = [p + x for p in roots for x in vs]
            found.extend(map(scatter, roots) if scatter else roots)
            return
        for v, vs in tables[k].items():
            if remaining - v in suffix[k + 1]:
                budget.spend()
                chosen.append(vs)
                descend(k + 1, remaining - v)
                chosen.pop()

    if target in suffix[0]:
        descend(0, target)
    found.sort()
    return found


def enumerate_roots(l: QuadLattice, bound: int) -> list[RootVector]:
    """All integer vectors with coordinates in [-bound, bound] and
    self-pairing -2, in lexicographic order.

    The Gram matrix splits into orthogonal blocks (the connected components
    of its nonzero pattern; their coordinates may interleave), and Q is the
    sum of the blocks' values. Each block gets a table from its value to its
    vectors in the box, restricted to the window of values the other blocks
    can still complete to -2: the y-interval of each x for [[0, c], [c, 0]],
    the triangular completed-squares search for definite blocks (a rank-1
    [[a]] is the one square a·x²) and a pruned box scan for the rest. A
    join over the blocks' values then visits only nodes that extend to a
    root and concatenates one vector of each chosen block into each root,
    so the cost is the tables plus O(rank · roots). All of it is exact. A
    diagonal form that misses -2 modulo 8, or modulo a prime of
    LOCAL_PRIMES dividing a weight, has no root and returns [] at once.

    Raises BudgetExceeded once the tables, searches, join and roots together
    need more than ROOT_NODE_BUDGET nodes.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    budget = _Budget()
    blocks = _orthogonal_blocks(l.gram)
    if all(len(block) == 1 for block in blocks):
        weights = [l.gram[i][i] for (i,) in blocks]
        for mod in [8, *(p for p in LOCAL_PRIMES if any(w % p == 0 for w in weights))]:
            squares, residues = {x * x % mod for x in range(mod)}, {0}
            for w in weights:
                residues = {(r + w * s) % mod for r in residues for s in squares}
            if ROOT_NORM % mod not in residues:  # a root would reach it
                return []
    grams = [[[l.gram[i][j] for j in block] for i in block] for block in blocks]
    forms = [None if _hyperbolic_entry(g) else _integer_square_forms(g) for g in grams]
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


def plane_orthogonal_to(u: Subspace, delta, l: QuadLattice) -> bool:
    """Containment test: does the plane sit inside the vector's orthogonal
    complement? True iff every integer row of the plane pairs to zero
    with the vector cleared of denominators."""
    if u.ambient != l.rank:
        raise AmbientMismatch(f"plane ambient {u.ambient}, lattice rank {l.rank}")
    pairing = linalg.terms_times(l.gram_terms, cleared(delta, l)[0])
    return not any(sum(map(operator.mul, pairing, row)) for row in u.rows)


def any_root_orthogonal(
    u: Subspace, roots: Sequence[RootVector], l: QuadLattice
) -> Optional[RootVector]:
    """First root (in list order) whose hyperplane contains the plane, else
    None; None means the plane avoids the truncated root-hyperplane union."""
    for root in roots:
        if plane_orthogonal_to(u, root, l):
            return root
    return None
