"""The benchmark's workloads: the argv each operation passes to
geocycle.cli.main, and the check its output must pass.

Inputs come only from the benchmark's seed. One round is a fixed list of
operations; a run repeats whole rounds, so every run attempts the same mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One timed operation: one or more CLI calls, checked together."""

    label: str
    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], None]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Callable[[int], list[Op]]]  # seed -> (round index -> ops)
    stable_stdout: Callable[[str], str] = lambda text: text  # what must repeat exactly


# --------------------------------------------------------------- arrange

ARRANGE_SIZES = (5, 12, 24, 32)


def _arrange_rounds(seed: int):
    order = list(ARRANGE_SIZES)
    random.Random(seed).shuffle(order)
    argvs = tuple(("arrange", "--p", "3", "--q", "4", "--n", str(n), "--auto-params") for n in order)

    def check(outputs):
        for n, text in zip(order, outputs):
            checks.check_arrange(text, 3, 4, n)

    op = Op("arrange(3,4) n=" + ",".join(map(str, order)), argvs, check)
    return lambda r: [op]


# ------------------------------------------------------------- spinor_k3

# Isometries per reflection count in one round. The op_ms median falls
# inside the large group of four-reflection products: ops of one count still
# differ in cost by about 20% (quartile spread), so only a large group keeps
# the median of a seeded sample steady from seed to seed.
SPINOR_MIX = {1: 2, 2: 2, 3: 4, 4: 48, 5: 4, 6: 2}
K3_BLOCKS = ((0, 2), (2, 4), (4, 6), (6, 14), (14, 22))


def _reflection_vector(gram, rng):
    """A vector with one nonzero coordinate in each of K3's five blocks, so
    that every reflection moves every block and ops of one reflection count
    cost about the same. Its self-pairing, -2(x^2 + y^2) from the two E8
    coordinates, is -4, -10 or -16."""
    w = [0] * len(gram)
    for lo, hi in K3_BLOCKS:
        w[rng.randrange(lo, hi)] = rng.choice((-2, -1, 1, 2) if hi - lo == 8 else (-1, 1))
    return w, checks.form(gram, w, w)


def reflection_product(gram, vectors):
    """Matrix of r_{w_1} ... r_{w_k}, applying each reflection
    z -> z - 2 B(z, w)/Q(w) w as a rank-one update of the running product."""
    n = len(gram)
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for w in vectors:
        scale = Fraction(-2, checks.form(gram, w, w))
        gw = [sum(g * x for g, x in zip(row, w)) for row in gram]  # z -> B(w, z)
        mw = [sum(a * x for a, x in zip(row, w) if x) for row in mat]
        for i in range(n):
            if mw[i]:
                f = scale * mw[i]
                mat[i] = [a + f * g for a, g in zip(mat[i], gw)]
    return mat


def _matrix_arg(mat) -> str:
    return json.dumps([[str(x) for x in row] for row in mat], separators=(",", ":"))


def _spinor_op(label, mat, norm_product, reflections) -> Op:
    def check(outputs):
        checks.check_spinor(outputs[0], norm_product, reflections)

    return Op(label, (("spinor", "--lattice", "k3", "--matrix", _matrix_arg(mat)),), check)


def _spinor_rounds(seed: int):
    gram = checks.k3_gram()
    n = len(gram)
    rng = random.Random(seed)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus_one = [[-x for x in row] for row in identity]
    # -1 is the product of the reflections along an orthogonal basis, so its
    # spinor norm is the class of det(Gram) and it takes rank-many reflections
    ops = [
        _spinor_op("identity", identity, Fraction(1), 0),
        _spinor_op("minus_one", minus_one, checks.det(gram), n),
    ]
    for k, copies in SPINOR_MIX.items():
        for j in range(copies):
            pairs = [_reflection_vector(gram, rng) for _ in range(k)]
            product = Fraction(1)
            for _, norm in pairs:
                product *= norm
            mat = reflection_product(gram, [w for w, _ in pairs])
            ops.append(_spinor_op(f"reflections={k}#{j}", mat, product, k))
    rng.shuffle(ops)
    return lambda r: ops


# ----------------------------------------------------------------- roots

ROOTS_CALLS = (
    (("roots", "--lattice", "e8_neg", "--bound", "6"), "e8_neg"),
    (("roots", "--lattice", "k3", "--bound", "6", "--block", "e8:1"), "k3_e8_1"),
    (("roots", "--lattice", "bpq", "--p", "2", "--q", "4", "--bound", "3"), "bpq_2_4"),
)


def _check_roots(kind: str, text: str) -> None:
    if kind == "e8_neg":
        checks.check_root_list(text, checks.neg_e8_gram(), 6, 240)
    elif kind == "k3_e8_1":
        at = checks.K3_E8_BLOCK_OFFSET
        checks.check_root_list(text, checks.k3_gram(), 6, 240, support=range(at, at + 8))
    else:
        gram = [[(1 if i < 2 else -1) if i == j else 0 for j in range(6)] for i in range(6)]
        checks.check_root_list(text, gram, 3, checks.bpq_root_count(2, 4, 3))


def _roots_rounds(seed: int):
    calls = list(ROOTS_CALLS)
    random.Random(seed).shuffle(calls)

    def check(outputs):
        for (_, kind), text in zip(calls, outputs):
            _check_roots(kind, text)

    op = Op("roots " + ",".join(kind for _, kind in calls), tuple(a for a, _ in calls), check)
    return lambda r: [op]


# ------------------------------------------------------------ verify_all


def _verify_rounds(seed: int):
    base = random.Random(seed).randrange(1, 10**6)

    def round_ops(r):
        suite_seed = str(base + r)
        argv = ("verify-all", "--seed", suite_seed)
        return [Op(f"verify-all --seed {suite_seed}", (argv,),
                   lambda outputs: checks.check_verify_all(outputs[0]))]

    return round_ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("arrange", _arrange_rounds),
        Workload("spinor_k3", _spinor_rounds),
        Workload("roots", _roots_rounds),
        Workload("verify_all", _verify_rounds, checks.without_timings),
    )
}
