"""Acceptance checks.

Each check is one headline property of the package, with its stated runtime
budget folded into the verdict. The functions are pure given a seed, so the
test suite and the command line runner share them.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from . import arrangement as arr
from . import grassmann as gr
from . import linalg
from . import obstructions as obs
from . import signs
from .isometries import (
    Isometry,
    cartan_dieudonne,
    compose,
    product_of_reflections,
    reflection,
    spinor_norm,
    square_class,
)
from .lattices import QuadLattice, classify, ray, standard_lattice
from .linalg import span

DEFAULT_SEED = 101


@dataclass
class CheckResult:
    name: str
    ok: bool
    elapsed: float
    detail: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
        }


# ---------------------------------------------------------------- generators


def random_anisotropic_vector(l: QuadLattice, rng: random.Random, lo=-5, hi=5):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(l.rank))
        if ray(v, l)[2] != 0:
            return v


def random_isometry(l: QuadLattice, rng: random.Random, reflections: int = 4) -> Isometry:
    vectors = [random_anisotropic_vector(l, rng) for _ in range(reflections)]
    return product_of_reflections(vectors, l)


def random_subspace(ambient: int, rng: random.Random, max_rows: int | None = None):
    rows = rng.randint(0, max_rows if max_rows is not None else ambient)
    return span(
        [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(rows)],
        ambient=ambient,
    )


def _random_strong_position_pair(base: gr.Flat, rng: random.Random):
    """A flat/hyperplane pair in strong general position over diag(+-1),
    base the standard flat of signature (p, q): block components dominated
    by the negative coordinate (positive cut lines), a nonzero rest
    component (rest clause), then a random isometry applied to both. The
    rest clause needs a nonzero rest, so q > p."""
    l = base.lattice
    p = base.block_count
    q = l.rank - p
    if q <= p:
        raise ValueError(f"a strong-position pair needs a nonzero rest, so q > p; got p={p}, q={q}")
    coords = [0] * (p + q)
    for i in range(p):
        y = rng.choice([-1, 1]) * rng.randint(2, 6)
        coords[i] = rng.randint(-(abs(y) - 1), abs(y) - 1)
        coords[p + i] = y
    tail = [0]
    while not any(tail):
        tail = [rng.randint(-3, 3) for _ in range(q - p)]
    coords[2 * p:] = tail
    g = random_isometry(l, rng, reflections=rng.randint(0, 3))
    flat = gr.translate(g, base)
    hyper = gr.translate(g, gr.hyperplane_new(coords, l))
    return flat, hyper


# -------------------------------------------------------------------- checks


def check_sign_claim(seed: int = DEFAULT_SEED) -> CheckResult:
    """diag(-1,...,-1,+1) with determinant (-1)^(p-1), exactly, for every
    signature 1 <= p <= q <= 6 and 25 seeded admissible vectors each."""
    start = time.perf_counter()
    rng = random.Random(seed)
    cases = failures = 0
    for p in range(1, 7):
        for q in range(p, 7):
            expected = signs.expected_pi_k_matrix(p)
            for _ in range(25):
                v = signs.random_admissible_v(p, q, rng)
                mat = signs.pi_k_matrix(p, q, v)
                cases += 1
                if mat != expected or linalg.det(mat) != Fraction(-1) ** (p - 1):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    return CheckResult("sign_claim", ok, elapsed, {"cases": cases, "failures": failures})


def check_arrangement_pattern() -> CheckResult:
    """Lower-triangular verdict table with points on the diagonal for the
    searched parameters at n = 5, in signatures (2,3), (3,3), (3,4)."""
    start = time.perf_counter()
    ok = True
    per_case = {}
    for p, q in ((2, 3), (3, 3), (3, 4)):
        case_start = time.perf_counter()
        m, t = arr.search_parameters(p, q, 5, arr.DEFAULT_BOOST)
        spec = arr.arrangement_spec(p, q, 5, arr.DEFAULT_BOOST, m, t)
        matrix = arr.intersection_matrix(spec)
        case_elapsed = time.perf_counter() - case_start
        good = matrix.lower_triangular and matrix.shift_consistent and case_elapsed < 30.0
        ok = ok and good
        per_case[f"{p},{q}"] = {
            "m": m,
            "t": str(t),
            "lower_triangular": matrix.lower_triangular,
            "shift_consistent": matrix.shift_consistent,
        }
    return CheckResult(
        "arrangement_pattern", ok, time.perf_counter() - start, {"cases": per_case}
    )


def _inequality_grid():
    for s in (2, 3):
        boost = arr.BoostParams(Fraction(s * s + 1, 2 * s), Fraction(s * s - 1, 2 * s))
        for m in (1, 2, 3, 4, 5):
            for t in (Fraction(1, 10), Fraction(1, 20)):
                yield boost, m, t


def check_inequality_implies_empty() -> CheckResult:
    """Whenever the exact tangent inequality holds, the directly computed
    flat/hyperplane intersection is empty (k = 1..12, 20 parameter combos)."""
    start = time.perf_counter()
    combos = hits = violations = 0
    flats = {}  # tangent -> F_0..F_12: the flats depend on the rotation alone
    for boost, m, t in _inequality_grid():
        combos += 1
        spec = arr.ArrangementSpec(2, 3, boost, m, arr.rotation_from_tangent(t), 12)
        if t not in flats:
            flats[t] = arr.build_family(spec)[0]
        h0 = gr.hyperplane_new(arr.base_hyperplane_normal(spec), spec.lattice())
        for k, detail in enumerate(arr.inequality_details(spec, 12), start=1):
            if detail.holds:
                hits += 1
                if gr.intersect_flat_hyperplane(flats[t][k], h0).tag != "Empty":
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and combos >= 20 and hits > 0
    return CheckResult(
        "inequality_implies_empty",
        ok,
        elapsed,
        {"combos": combos, "inequality_hits": hits, "violations": violations},
    )


def check_stabilizer_claim(seed: int = DEFAULT_SEED) -> CheckResult:
    """Strong-general-position pairs admit only the all-ones block sign
    pattern; normals with a vanishing block component admit more."""
    start = time.perf_counter()
    rng = random.Random(seed)
    strong_cases = strong_failures = 0
    bases = {}
    for p, q in ((2, 3), (3, 4)):
        bases[p, q] = base = arr.standard_flat(p, q)
        for _ in range(50):
            flat, hyper = _random_strong_position_pair(base, rng)
            strong_cases += 1
            if not gr.general_position(flat, hyper, "strong"):
                strong_failures += 1
                continue
            if gr.stabilizer_sign_patterns(flat, hyper) != [(1,) * p]:
                strong_failures += 1
    degenerate_cases = degenerate_failures = 0
    flat = bases[2, 3]
    l = flat.lattice
    for y in range(1, 6):
        # no component in the first block: the (-1, +1, ...) pattern survives
        coords = [0, 0, 0, y, rng.randint(0, 2)]
        hyper = gr.hyperplane_new(coords, l)
        degenerate_cases += 1
        patterns = gr.stabilizer_sign_patterns(flat, hyper)
        if len(patterns) <= 1 or (1, 1) not in patterns:
            degenerate_failures += 1
    elapsed = time.perf_counter() - start
    ok = strong_failures == 0 and degenerate_failures == 0
    return CheckResult(
        "stabilizer_claim",
        ok,
        elapsed,
        {
            "strong_cases": strong_cases,
            "strong_failures": strong_failures,
            "degenerate_cases": degenerate_cases,
            "degenerate_failures": degenerate_failures,
        },
    )


def check_spinor_norm(seed: int = DEFAULT_SEED) -> CheckResult:
    """Reflection signs, multiplicativity modulo squares, and exact
    reconstruction of 200 random reflection products."""
    start = time.perf_counter()
    rng = random.Random(seed)
    l = standard_lattice("bpq", 2, 3)
    failures = 0
    for _ in range(100):
        x = random_anisotropic_vector(l, rng)
        sign = 1 if ray(x, l)[2] > 0 else -1
        if spinor_norm(reflection(x, l)).real_sign != sign:
            failures += 1
    for _ in range(200):
        g = random_isometry(l, rng, reflections=rng.randint(1, 3))
        h = random_isometry(l, rng, reflections=rng.randint(1, 3))
        gh = compose(g, h)
        tg, th = spinor_norm(g), spinor_norm(h)
        factors = cartan_dieudonne(gh)
        if spinor_norm(gh, factors) != square_class(Fraction(tg.representative * th.representative)):
            failures += 1
        if len(factors) > 2 * l.rank:
            failures += 1
        if product_of_reflections(factors, l) != gh:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    return CheckResult("spinor_norm", ok, elapsed, {"failures": failures})


def _self_pairing(l: QuadLattice):
    """v -> v.G.v for integer vectors, summing g_ij v_i v_j in integers over
    the nonzero Gram entries."""
    entries = [(i, j, c) for i, row in enumerate(l.gram) for j, c in enumerate(row) if c]
    return lambda v: sum(c * v[i] * v[j] for i, j, c in entries)


def naive_roots(l: QuadLattice, bound: int) -> list[tuple[int, ...]]:
    """Oracle: exhaust the whole coordinate box, in lexicographic order.
    Only viable at desk scale."""
    q = _self_pairing(l)
    box = itertools.product(range(-bound, bound + 1), repeat=l.rank)
    return [v for v in box if q(v) == obs.ROOT_NORM]


def check_root_enumeration() -> CheckResult:
    """Counts on the named lattices plus pruned-equals-naive on small ones."""
    start = time.perf_counter()
    h = standard_lattice("hyperbolic")
    b11 = standard_lattice("bpq", 1, 1)
    failures = {}
    roots_h = obs.enumerate_roots(h, 1)
    if roots_h != [(-1, 1), (1, -1)]:
        failures["hyperbolic_bound_1"] = roots_h
    if obs.enumerate_roots(b11, 10):
        failures["b11_bound_10"] = "expected no roots"
    e8_start = time.perf_counter()
    e8_roots = obs.enumerate_roots(standard_lattice("e8_neg"), 6)
    e8_elapsed = time.perf_counter() - e8_start
    if len(e8_roots) != 240:
        failures["e8_neg_bound_6"] = len(e8_roots)
    e8_q = _self_pairing(standard_lattice("e8_neg"))
    if not all(e8_q(r) == -2 for r in e8_roots[:10]):
        failures["e8_neg_norms"] = "bad self-pairing"
    from .lattices import combine, quad_lattice

    small = [
        (b11, 3),
        (h, 3),
        (standard_lattice("bpq", 2, 2), 2),
        (quad_lattice([[-2, 1], [1, -2]]), 3),
        (combine(h, quad_lattice([[-2]])), 2),
        (combine(h, h), 2),
    ]
    for l, bound in small:
        if obs.enumerate_roots(l, bound) != naive_roots(l, bound):
            failures[f"oracle_rank{l.rank}_bound{bound}"] = "pruned != naive"
    elapsed = time.perf_counter() - start
    ok = not failures and e8_elapsed < 60.0
    return CheckResult(
        "root_enumeration",
        ok,
        elapsed,
        {"e8_count": len(e8_roots), "failures": failures},
    )


def check_lattice_classification() -> CheckResult:
    """K3 lattice is (3,19), even, unimodular; diag lattices match their
    construction for p, q <= 10; all exact and under one second."""
    start = time.perf_counter()
    failures = {}
    k3 = classify(standard_lattice("k3"))
    if not (k3.signature == (3, 19) and k3.parity == "even" and k3.unimodular):
        failures["k3"] = k3
    for p in range(1, 11):
        for q in range(1, 11):
            got = classify(standard_lattice("bpq", p, q))
            if not (got.signature == (p, q) and got.parity == "odd" and got.unimodular):
                failures[f"b{p}{q}"] = got
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    return CheckResult("lattice_classification", ok, elapsed, {"failures": failures})


def check_exact_linear_algebra(seed: int = DEFAULT_SEED) -> CheckResult:
    """Dimension formula, perp involution, Sylvester invariance."""
    from .lattices import combine

    start = time.perf_counter()
    rng = random.Random(seed)
    h = standard_lattice("hyperbolic")
    rank4 = combine(h, h)
    failures = 0
    for _ in range(100):
        a = random_subspace(5, rng)
        b = random_subspace(5, rng)
        meet = linalg.intersect(a, b)
        join = linalg.subspace_sum(a, b)
        if meet.dim + join.dim != a.dim + b.dim:
            failures += 1
    for l in (standard_lattice("bpq", 2, 3), rank4):
        for _ in range(20):
            a = random_subspace(l.rank, rng)
            if linalg.perp(linalg.perp(a, l), l) != a:
                failures += 1
    grams = [(l, linalg.inertia(l.gram)) for l in (standard_lattice("bpq", 2, 3), rank4)]
    for i in range(100):
        l, inertia = grams[i % len(grams)]
        n = l.rank
        while True:
            gm = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if linalg.det(gm) != 0:
                break
        congruent = linalg.gram_of(zip(*gm), l)  # gm^T.G.gm, over gm's columns
        if linalg.inertia(congruent) != inertia:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    return CheckResult("exact_linear_algebra", ok, elapsed, {"failures": failures})


ALL_CHECKS = (
    ("sign_claim", lambda seed: check_sign_claim(seed)),
    ("arrangement_pattern", lambda seed: check_arrangement_pattern()),
    ("inequality_implies_empty", lambda seed: check_inequality_implies_empty()),
    ("stabilizer_claim", lambda seed: check_stabilizer_claim(seed)),
    ("spinor_norm", lambda seed: check_spinor_norm(seed)),
    ("root_enumeration", lambda seed: check_root_enumeration()),
    ("lattice_classification", lambda seed: check_lattice_classification()),
    ("exact_linear_algebra", lambda seed: check_exact_linear_algebra(seed)),
)


FORKED_CHECK = "spinor_norm"  # the largest of the eight, more than half the suite


def _can_fork() -> bool:
    """fork exists, the caller's thread is the only one (a child copies just
    that one), and the host has a second CPU."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no sched_getaffinity on this platform
        return (os.cpu_count() or 1) > 1


def _run_forked(seed: int) -> list[CheckResult] | None:
    """ALL_CHECKS' results with FORKED_CHECK run in a forked child, or None
    when fork fails. The child pickles (True, result) or (False, exception)
    into a pipe, prints nothing and never returns into the caller. The
    child is waited for before this returns or raises."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, dict(ALL_CHECKS)[FORKED_CHECK](seed))
            except BaseException as e:  # raised again in the parent
                outcome = (False, e)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)  # no atexit, no flush of stdio buffers copied from the parent
    os.close(write_fd)
    try:
        results = [None if name == FORKED_CHECK else fn(seed) for name, fn in ALL_CHECKS]
    finally:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"the {FORKED_CHECK} check's process ended with code {code} "
                                "and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return [value if r is None else r for r in results]


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The eight checks' results, in ALL_CHECKS order.

    On a host with more than one CPU, check 5 (spinor_norm) runs in a
    forked child while this process runs the other seven in order; an
    exception the child raised is raised here with the same type and
    message. Without fork, on one CPU or with other threads running, the
    eight run here one after another. Each result's elapsed is its own
    check's wall time, so with the child the eight overlap.
    """
    if _can_fork():
        results = _run_forked(seed)
        if results is not None:
            return results
    return [fn(seed) for _, fn in ALL_CHECKS]
