"""Acceptance checks.

Each check is one headline property of the package, with its stated runtime
budget folded into the verdict. The functions are pure given a seed, so the
test suite and the command line runner share them.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import threading
import time
from dataclasses import asdict, dataclass
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
from .lattices import QuadLattice, classify, combine, quad_lattice, ray, standard_lattice
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


def random_anisotropic_vector(l: QuadLattice, rng: random.Random):
    """A vector with entries in [-5, 5] and Q(v) != 0, drawn until one is."""
    q = l.self_pairing
    while True:
        v = tuple([rng.randint(-5, 5) for _ in range(l.rank)])
        if q(v):
            return v


def random_isometry(l: QuadLattice, rng: random.Random, reflections: int = 4) -> Isometry:
    vectors = [random_anisotropic_vector(l, rng) for _ in range(reflections)]
    return product_of_reflections(vectors, l)


def random_subspace(ambient: int, rng: random.Random):
    rows = rng.randint(0, ambient)
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


def _check(budget: float = math.inf):
    """A check that returns (ok, detail) as its CheckResult, named after the
    function without its check_ prefix, timed around the call, and ok only
    when it also ends within budget seconds."""
    def decorate(fn):
        @functools.wraps(fn)
        def timed(*args) -> CheckResult:
            start = time.perf_counter()
            ok, detail = fn(*args)
            elapsed = time.perf_counter() - start
            name = fn.__name__.removeprefix("check_")
            return CheckResult(name, ok and elapsed < budget, elapsed, detail)
        return timed
    return decorate


@_check(budget=10.0)
def check_sign_claim(seed: int = DEFAULT_SEED):
    """diag(-1,...,-1,+1), and so determinant (-1)^(p-1), exactly, for every
    signature 1 <= p <= q <= 6 and 25 seeded admissible vectors each."""
    rng = random.Random(seed)
    cases = failures = 0
    for p in range(1, 7):
        for q in range(p, 7):
            expected = signs.expected_pi_k_matrix(p)
            for _ in range(25):
                v = signs.random_admissible_v(p, q, rng)
                mat = signs.pi_k_matrix(v)
                cases += 1
                if mat != expected:
                    failures += 1
    return failures == 0, {"cases": cases, "failures": failures}


@_check()
def check_arrangement_pattern():
    """Lower-triangular verdict table with points on the diagonal for the
    searched parameters at n = 5, in signatures (2,3), (3,3), (3,4)."""
    ok = True
    per_case = {}
    m, t = arr.search_parameters(5, arr.DEFAULT_BOOST)
    for p, q in ((2, 3), (3, 3), (3, 4)):
        case_start = time.perf_counter()
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
    return ok, {"cases": per_case}


def _inequality_grid():
    for s in (2, 3):
        boost = arr.BoostParams(Fraction(s * s + 1, 2 * s), Fraction(s * s - 1, 2 * s))
        for m in (1, 2, 3, 4, 5):
            for t in (Fraction(1, 10), Fraction(1, 20)):
                yield boost, m, t


@_check()
def check_inequality_implies_empty():
    """Whenever the exact tangent inequality holds, the directly computed
    flat/hyperplane intersection is empty (k = 1..12, 20 parameter combos)."""
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
    ok = violations == 0 and combos >= 20 and hits > 0
    return ok, {"combos": combos, "inequality_hits": hits, "violations": violations}


@_check()
def check_stabilizer_claim(seed: int = DEFAULT_SEED):
    """Strong-general-position pairs admit only the all-ones block sign
    pattern; normals with a vanishing block component admit more."""
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
    return strong_failures == 0 and degenerate_failures == 0, {
        "strong_cases": strong_cases,
        "strong_failures": strong_failures,
        "degenerate_cases": degenerate_cases,
        "degenerate_failures": degenerate_failures,
    }


def spinor_cases(seed: int = DEFAULT_SEED) -> tuple[QuadLattice, list]:
    """The spinor check's lattice B(2,3) and its 300 inputs, in the order
    one rng draws them: 100 cases (x,) of one anisotropic vector, then 200
    cases (gs, hs) of two lists of one to three, each list's length drawn
    just before its vectors."""
    rng = random.Random(seed)
    l = standard_lattice("bpq", 2, 3)
    cases = [(random_anisotropic_vector(l, rng),) for _ in range(100)]
    for _ in range(200):
        gs = [random_anisotropic_vector(l, rng) for _ in range(rng.randint(1, 3))]
        hs = [random_anisotropic_vector(l, rng) for _ in range(rng.randint(1, 3))]
        cases.append((gs, hs))
    return l, cases


def spinor_case(l: QuadLattice, case) -> int:
    """The failures of one spinor-check input. (x,): the reflection in x
    has the sign of Q(x). (gs, hs): for the products g and h of those
    reflections, spinor_norm(gh) is the class of the product of theirs,
    and gh has at most 2 * rank Cartan-Dieudonne factors, whose product
    is gh."""
    if len(case) == 1:
        (x,) = case
        sign = 1 if ray(x, l)[2] > 0 else -1
        return int(spinor_norm(reflection(x, l)).real_sign != sign)
    g, h = (product_of_reflections(vectors, l) for vectors in case)
    gh = compose(g, h)
    tg, th = spinor_norm(g), spinor_norm(h)
    factors = cartan_dieudonne(gh)
    failures = spinor_norm(gh) != square_class(Fraction(tg.representative * th.representative))
    failures += len(factors) > 2 * l.rank
    failures += product_of_reflections(factors, l) != gh
    return failures


def _spinor_result(failures: int, elapsed: float) -> CheckResult:
    return CheckResult("spinor_norm", failures == 0 and elapsed < 10.0, elapsed,
                       {"failures": failures})


def check_spinor_norm(seed: int = DEFAULT_SEED) -> CheckResult:
    """Reflection signs, multiplicativity modulo squares, and exact
    reconstruction of 200 random reflection products: spinor_cases'
    inputs, each through spinor_case, in one loop. run_all shares the same
    cases through a pipe instead; this is the reference it must equal."""
    start = time.perf_counter()
    l, cases = spinor_cases(seed)
    failures = sum(spinor_case(l, case) for case in cases)
    return _spinor_result(failures, time.perf_counter() - start)


def naive_roots(l: QuadLattice, bound: int) -> list[tuple[int, ...]]:
    """Oracle: exhaust the whole coordinate box, in lexicographic order.
    Only viable at desk scale."""
    q = l.self_pairing
    box = itertools.product(range(-bound, bound + 1), repeat=l.rank)
    return [v for v in box if q(v) == obs.ROOT_NORM]


@_check()
def check_root_enumeration():
    """Counts on the named lattices plus pruned-equals-naive on small ones."""
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
    e8_q = standard_lattice("e8_neg").self_pairing
    if not all(e8_q(r) == -2 for r in e8_roots[:10]):
        failures["e8_neg_norms"] = "bad self-pairing"
    small = [
        (b11, 3),
        (h, 3),
        (standard_lattice("bpq", 2, 2), 2),
        (quad_lattice([[-2, 1], [1, -2]]), 3),
        (combine(h, quad_lattice([[-2]])), 2),
        (combine(h, h), 2),
        (quad_lattice([[1, 1, 0], [1, -1, 1], [0, 1, 1]]), 2),
    ]
    for l, bound in small:
        if obs.enumerate_roots(l, bound) != naive_roots(l, bound):
            failures[f"oracle_rank{l.rank}_bound{bound}"] = "pruned != naive"
    return not failures and e8_elapsed < 60.0, {"e8_count": len(e8_roots), "failures": failures}


@_check(budget=1.0)
def check_lattice_classification():
    """K3 lattice is (3,19), even, unimodular; diag lattices match their
    construction for p, q <= 10; all exact and under one second."""
    failures = {}
    k3 = classify(standard_lattice("k3"))
    if not (k3.signature == (3, 19) and k3.parity == "even" and k3.unimodular):
        failures["k3"] = asdict(k3)
    for p in range(1, 11):
        for q in range(1, 11):
            got = classify(standard_lattice("bpq", p, q))
            if not (got.signature == (p, q) and got.parity == "odd" and got.unimodular):
                failures[f"b{p}{q}"] = asdict(got)
    return not failures, {"failures": failures}


@_check(budget=5.0)
def check_exact_linear_algebra(seed: int = DEFAULT_SEED):
    """Dimension formula, perp involution, Sylvester invariance."""
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
    return failures == 0, {"failures": failures}


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


SPINOR_CHUNK = 4  # spinor cases per token: 75 tokens, each a few hundred microseconds


def _can_fork() -> bool:
    """fork exists, the caller's thread is the only one (a child copies just
    that one), and the host has a second CPU."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no sched_getaffinity on this platform
        return (os.cpu_count() or 1) > 1


def _claim_spinor_cases(l: QuadLattice, cases: list, tokens: int):
    """(failures, seconds, raised) over the spinor cases of the chunks this
    process claims: token byte k read from the fd tokens is chunk k, and
    claiming stops at EOF or at the first case that raises, with raised
    (its index, the exception), else None."""
    start = time.perf_counter()
    failures = 0
    while token := os.read(tokens, 1):
        first = token[0] * SPINOR_CHUNK
        for i in range(first, min(first + SPINOR_CHUNK, len(cases))):
            try:
                failures += spinor_case(l, cases[i])
            except Exception as e:  # raised again by run_all, lowest index first
                return failures, time.perf_counter() - start, (i, e)
    return failures, time.perf_counter() - start, None


def _fork_claimer(l: QuadLattice, cases: list, tokens: int) -> tuple[int, int] | None:
    """(pid, fd) of a forked child that claims spinor chunks from the fd
    tokens and pickles its (failures, seconds, raised) into the pipe fd
    reads, or None when fork fails. The child prints nothing and never
    returns into the caller."""
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
            outcome = _claim_spinor_cases(l, cases, tokens)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)  # no atexit, no flush of stdio buffers copied from the parent
    os.close(write_fd)
    return pid, read_fd


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The eight checks' results, in ALL_CHECKS order.

    Check 5's (spinor_norm) cases are drawn first, and one token byte per
    chunk of SPINOR_CHUNK cases (at most 256 chunks) goes into a pipe whose
    write end is closed, so an empty pipe reads as EOF. On a host where
    _can_fork holds, a forked child claims chunks from the start
    (_fork_claimer). This process runs the other seven checks in order,
    then claims what is left: every chunk when no child runs. The child is
    waited for before this returns or raises. Each result's elapsed is its
    own check's time; the spinor check's is the draw plus both sides' case
    time. Of the cases that raised, the lowest index's exception is raised
    here, with the type and message check_spinor_norm would raise.
    """
    import pickle

    start = time.perf_counter()
    l, cases = spinor_cases(seed)
    drawn = time.perf_counter() - start
    tokens, tokens_end = os.pipe()
    os.write(tokens_end, bytes(range(-(-len(cases) // SPINOR_CHUNK))))
    os.close(tokens_end)
    child = _fork_claimer(l, cases, tokens) if _can_fork() else None
    try:
        results = [None if name == "spinor_norm" else fn(seed) for name, fn in ALL_CHECKS]
        sides = [_claim_spinor_cases(l, cases, tokens)]
    finally:
        os.close(tokens)
        if child:
            pid, read_fd = child
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
    if child:
        if not data:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"the spinor check's process ended with code {code} "
                                    "and no result")
        sides.append(pickle.loads(data))
    raised = [side[2] for side in sides if side[2]]
    if raised:
        raise min(raised, key=lambda r: r[0])[1]
    spinor = _spinor_result(sum(side[0] for side in sides), drawn + sum(side[1] for side in sides))
    return [spinor if r is None else r for r in results]
