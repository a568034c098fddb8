"""An Isometry's construction certifies the form by the Cartan-Dieudonne walk.

The oracles are the spinor and congruence commands as they ran before
(tests/oracles.py): the Gram check on every matrix, then the walk or the
congruence tests. Both commands must print the same bytes with the same
exit code, and congruence the same first stderr line. A valid isometry must
never fall back to the Gram check, and a non-isometry must raise
FormNotPreserved when it is built, never ZeroDivisionError, within the
walk's entry cap.
"""

import json
import random
import time
from itertools import chain

import pytest

from geocycle import cli, isometries, linalg, verify
from geocycle.errors import CertificateFailed, FormNotPreserved, GeocycleError
from geocycle.isometries import (
    Isometry,
    _apply_update,
    _entry_bound,
    _reflection_update,
    cartan_dieudonne,
    compose,
    product_of_reflections,
    reflection,
    spinor_norm,
)
from geocycle.lattices import QuadLattice, ray, standard_lattice
from geocycle.linalg import cleared
from oracles import (
    RawMatrix,
    eager_cartan_dieudonne,
    eager_cmd_congruence,
    eager_cmd_spinor,
    factorization_spinor_norm,
    gram_preserves_form,
)
from test_cli import DEEP, K3_MINUS_ONE, RESPELLED_MATRICES, k3_reflection_product
from test_fuzz import _matrix_texts

B11 = ["--lattice", "bpq", "--p", "1", "--q", "1"]
NOT_AN_ISOMETRY = "error: matrix does not preserve the bilinear form"


def spinor_argv(lattice_argv, matrix):
    return ["spinor", *lattice_argv, "--matrix", matrix]


def large_norm_reflection(n):
    m = reflection(((n + 1) // 2, (n - 1) // 2), standard_lattice("bpq", 1, 1)).matrix
    return json.dumps([[str(x) for x in row] for row in m])


def existing_argvs():
    """Every spinor argv of tests/test_cli.py."""
    argvs = [spinor_argv(B11, json.dumps(rows))
             for canonical, spellings in RESPELLED_MATRICES for rows in [canonical, *spellings]]
    argvs += [
        spinor_argv(["--lattice", "k3"], K3_MINUS_ONE),
        spinor_argv(["--lattice", "k3"], k3_reflection_product(17, 4)),
        spinor_argv(B11, large_norm_reflection(10000000000037)),
        spinor_argv(B11, large_norm_reflection(1000000007 * 1000000009 * 998244353)),
        spinor_argv(B11, "[[2,0],[0,1]]"),
        spinor_argv(B11, '[["1e10000000",0],[0,1]]'),
    ]
    argvs += [spinor_argv(B11, m) for m in ("[[true,0],[0,1]]", '["10","01"]',
                                           '{"10": 0, "01": 1}', '[{"1": 0}, {"0": 1}]')]
    argvs += [spinor_argv(["--lattice", "bpq", "--p", p, "--q", q], "[[1]]")
              for p, q in (("1000000", "1"), ("1", "1000000"))]
    return argvs


def k3_argvs():
    """Seeded K3 products of 1-6 reflections, -1 and the identity."""
    identity = json.dumps([[int(i == j) for j in range(22)] for i in range(22)])
    argvs = [spinor_argv(["--lattice", "k3"], m) for m in (identity, K3_MINUS_ONE)]
    for seed in range(3):
        for count in range(1, 7):
            argvs.append(spinor_argv(["--lattice", "k3"], k3_reflection_product(seed, count)))
    return argvs


def run_oracle(argv):
    """(exit code, stdout) of the spinor command as it ran before, with
    cli.main's error handling."""
    args = cli.build_parser().parse_args(argv)
    try:
        status, payload, _ = eager_cmd_spinor(args)
    except (GeocycleError, ValueError, TypeError, OSError):
        return 2, ""
    return (0 if status == "ok" else 1), json.dumps(payload) + "\n"


@pytest.fixture
def walks(monkeypatch):
    """The capped flag of every walk, and every Gram check (gram_of call)
    the isometries module makes."""
    seen = {"walks": [], "gram": 0}
    real_walk, real_gram = isometries._walk, linalg.gram_of

    def walk(g, capped):
        seen["walks"].append(capped)
        return real_walk(g, capped)

    def gram_of(rows, lattice):
        seen["gram"] += 1
        return real_gram(rows, lattice)

    monkeypatch.setattr(isometries, "_walk", walk)
    monkeypatch.setattr(linalg, "gram_of", gram_of)
    return seen


@pytest.mark.parametrize("argv", existing_argvs() + k3_argvs(), ids=lambda a: a[-1][:40])
def test_spinor_prints_the_oracles_bytes(capsys, argv):
    expected = run_oracle(argv)
    code = cli.main(argv)
    assert (code, capsys.readouterr().out) == expected


def test_spinor_prints_the_oracles_bytes_on_fuzzed_matrices(capsys):
    kinds = set()
    for kind, text, lattice_argv in _matrix_texts(random.Random(2305)):
        argv = spinor_argv(lattice_argv, text)
        expected = run_oracle(argv)
        code = cli.main(argv)
        assert (code, capsys.readouterr().out) == expected, (kind, argv)
        kinds.add(kind)
    assert {"isometry", "near_isometry", "non_isometry", "huge_int"} <= kinds


def test_no_valid_input_falls_back_to_the_gram_check(capsys, walks):
    valid = [a for a in existing_argvs() + k3_argvs() if run_oracle(a)[0] == 0]
    assert len(valid) >= 30
    for argv in valid:
        walks["walks"].clear()
        walks["gram"] = 0
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert walks == {"walks": [True], "gram": 0}, argv


def test_the_factors_and_the_spinor_norm_share_one_walk(walks):
    # the rays are held by the isometry: spinor_norm after cartan_dieudonne
    # neither walks again nor runs the Gram check
    g = Isometry(*cleared(json.loads(k3_reflection_product(5, 4))), standard_lattice("k3"))
    factors = cartan_dieudonne(g)
    norm = spinor_norm(g)
    assert walks == {"walks": [True], "gram": 0}
    assert norm == factorization_spinor_norm(factors, g.lattice)


def test_a_swap_of_signs_meets_an_isotropic_plus_ray(capsys, walks):
    # [[0,1],[1,0]] on B(1,1) sends e to f: g(e) - e and g(e) + e are both
    # isotropic, and a reflection along the plus-ray would divide by Q = 0.
    # The capped walk stops there, and construction's Gram check refuses g
    l = standard_lattice("bpq", 1, 1)
    assert l.orthogonal_rays[0][0][0] == (1, 0)
    assert ray((-1, 1), l)[2] == ray((1, 1), l)[2] == 0
    assert isometries._walk(RawMatrix(((0, 1), (1, 0)), 1, l), capped=True) is None
    assert walks == {"walks": [True], "gram": 0}
    with pytest.raises(FormNotPreserved, match="does not preserve"):
        Isometry(((0, 1), (1, 0)), 1, l)
    assert walks == {"walks": [True, True], "gram": 1}
    code = cli.main(spinor_argv(B11, "[[0,1],[1,0]]"))
    assert (code, capsys.readouterr()) == (2, ("", NOT_AN_ISOMETRY + "\n"))


def diagonal(n, value, perm=None):
    """value times the permutation matrix of perm (the identity by default)."""
    perm = perm or range(n)
    return tuple(tuple(value * int(perm[i] == j) for j in range(n)) for i in range(n))


def non_isometries(rng):
    """Matrices num/den (RawMatrix) that fail the Gram check, or pass it
    and miss the walk's other conditions, over B(1,1), B(2,3), B(3,4), -E8
    and K3: nudged products, coordinate permutations and scalings, random
    integer matrices, and a negative denominator."""
    out = []
    for l in [standard_lattice("bpq", p, q) for p, q in ((1, 1), (2, 3), (3, 4))] + [
        standard_lattice("e8_neg"), standard_lattice("k3")
    ]:
        n = l.rank
        for _ in range(6):
            g = verify.random_isometry(l, rng, reflections=rng.randint(1, 4))
            rows = [list(row) for row in g.num]
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
            out.append(RawMatrix(tuple(map(tuple, rows)), g.den, l))
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(RawMatrix(diagonal(n, 1, perm), 1, l))
            out.append(RawMatrix(diagonal(n, rng.choice((2, 3))), 1, l))
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            out.append(RawMatrix(rows, rng.randint(1, 4), l))
        out.append(RawMatrix(diagonal(n, -1), -1, l))
    return out


def outcome(walk, g):
    try:
        return walk(g)
    except GeocycleError as e:
        return type(e), str(e)


def test_non_isometries_raise_what_the_oracle_raises():
    # the oracle's refusal now comes when the Isometry is built; a matrix
    # that is built factors and takes its class as the oracle's
    rng = random.Random(2301)
    raised = 0
    for g in non_isometries(rng):
        expected = outcome(eager_cartan_dieudonne, g)
        assert outcome(lambda h: cartan_dieudonne(Isometry(*h)), g) == expected
        assert outcome(lambda h: spinor_norm(Isometry(*h)), g) == outcome(
            lambda h: factorization_spinor_norm(eager_cartan_dieudonne(h), h.lattice), g
        )
        if isinstance(expected, tuple) and expected[0] is FormNotPreserved:
            raised += 1
            assert outcome(lambda h: Isometry(*h), g) == expected
    assert raised > 80


def test_a_large_non_isometry_stops_at_the_cap(capsys, walks):
    # random 40-bit entries at rank 64: an uncapped walk grows them to
    # thousands of bits over seconds; the capped one stops, and the Gram
    # check refuses the matrix
    rng = random.Random(64)
    m = [[rng.randint(-2**40, 2**40) for _ in range(64)] for _ in range(64)]
    start = time.perf_counter()
    code = cli.main(spinor_argv(["--lattice", "bpq", "--p", "32", "--q", "32"], json.dumps(m)))
    assert time.perf_counter() - start < 1.0
    assert (code, capsys.readouterr()) == (2, ("", NOT_AN_ISOMETRY + "\n"))
    assert walks == {"walks": [True], "gram": 1}


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (3, 19)])
def test_carried_certificates_agree_with_the_gram_check(p, q):
    l = standard_lattice("bpq", p, q)
    rng = random.Random(2302 + p * q)
    identity = product_of_reflections([], l)
    certified = [identity]
    for _ in range(12):
        certified.append(verify.random_isometry(l, rng, reflections=rng.randint(0, 5)))
        certified.append(reflection(verify.random_anisotropic_vector(l, rng), l))
    certified += [compose(a, b) for a, b in zip(certified, certified[1:])]
    certified += [compose(a, compose(b, a)) for a, b in zip(certified, certified[3:])]
    for g in certified:
        # made by _certified: no walk ran, and the independent Gram check holds
        assert "reflection_rays" not in vars(g)
        assert gram_preserves_form(g)
    for g in certified[1:6]:
        # a hand-built copy is certified by its own walk, and its composites
        # equal those of the certified factor; a nudged copy is not built
        h = Isometry(g.num, g.den, l)
        assert "reflection_rays" in vars(h)
        assert (compose(g, h), compose(h, g)) == (compose(g, g), compose(g, g))
        with pytest.raises(FormNotPreserved):
            Isometry(g.num[:-1] + (tuple(a + 1 for a in g.num[-1]),), g.den, l)


def test_a_completed_walk_certifies_its_isometry():
    rng = random.Random(2303)
    for l in (standard_lattice("bpq", 2, 3), standard_lattice("e8_neg"), standard_lattice("k3")):
        for _ in range(5):
            g = verify.random_isometry(l, rng, reflections=rng.randint(0, 6))
            fresh = Isometry(g.num, g.den, l)
            # construction's walk reached the identity and kept its rays
            assert "reflection_rays" in vars(fresh) and gram_preserves_form(fresh)
            assert cartan_dieudonne(fresh) == eager_cartan_dieudonne(g)


def test_the_entry_bound_bounds_every_step():
    # the O(rank) bound stays above the running map's largest entry on
    # valid walks and on walks of non-isometries alike
    rng = random.Random(2304)
    l = standard_lattice("bpq", 3, 4)
    for _ in range(20):
        g = verify.random_isometry(l, rng, reflections=rng.randint(1, 5))
        num = g.num if rng.random() < 0.5 else tuple(
            tuple(rng.randint(-99, 99) for _ in range(7)) for _ in range(7))
        den = g.den
        bound = max(map(abs, chain.from_iterable(num)))
        for _ in range(8):
            x_ray = ray(verify.random_anisotropic_vector(l, rng), l)
            q, c = _reflection_update(x_ray, num)
            new_num, new_den = _apply_update(x_ray[0], q, c, num, den)
            bound = _entry_bound(bound, x_ray[0], q, c, den, new_den)
            assert bound >= max(map(abs, chain.from_iterable(new_num)))
            num, den = new_num, new_den


def test_a_valid_walk_past_the_cap_falls_back_to_the_same_factors(monkeypatch, walks):
    # with the cap at the input's own bit length, the capped walk of -1 on
    # K3 stops: construction runs one Gram check, which certifies -1, and
    # the first reflection_rays runs one uncapped walk, which factors it
    monkeypatch.setattr(isometries, "WALK_CAP_FACTOR", 1)
    monkeypatch.setattr(isometries, "WALK_CAP_SLACK", 0)
    l = standard_lattice("k3")
    g = Isometry(diagonal(22, -1), 1, l)
    assert walks == {"walks": [True], "gram": 1}
    assert "reflection_rays" not in vars(g)
    expected = eager_cartan_dieudonne(g)
    assert cartan_dieudonne(g) == expected
    assert spinor_norm(g) == factorization_spinor_norm(expected, l)
    assert walks == {"walks": [True, False], "gram": 1}


def test_a_walk_of_more_than_twice_the_rank_rays_is_refused(monkeypatch):
    # Cartan-Dieudonne bounds a factorization by 2 * rank reflections: a
    # walk that returned more would certify nothing
    l = standard_lattice("bpq", 1, 1)
    too_many = [ray((1, 0), l)] * (2 * l.rank + 1)
    monkeypatch.setattr(isometries, "_walk", lambda g, capped: too_many)
    with pytest.raises(CertificateFailed, match=r"^5 reflections exceed 2 \* rank = 4$"):
        cartan_dieudonne(Isometry(diagonal(2, 1), 1, l))


def congruence_argv(lattice_argv, matrix, modulus):
    return ["congruence", *lattice_argv, "--matrix", matrix, "--modulus", str(modulus)]


def congruence_argvs():
    """Every congruence argv of tests/test_cli.py and tests/test_isometries.py."""
    b22 = ["--lattice", "bpq", "--p", "2", "--q", "2"]
    argvs = [congruence_argv(B11, json.dumps(rows), 2)
             for canonical, spellings in RESPELLED_MATRICES for rows in [canonical, *spellings]]
    argvs += [congruence_argv(B11, m, 2)
              for m in ("[[1,0],[0,1],[1,1]]", "[]", "[[1],[1,2]]", "[[0,0],[0,0]]")]
    argvs += [
        congruence_argv(B11, json.dumps([[1, 0], ["0", 1]]), 4),
        congruence_argv(B11, '[["5/4","3/4"],["3/4","5/4"]]', 4),
        congruence_argv(B11, "[[1,1],[0,1]]", 1),
    ]
    argvs += [congruence_argv(b22, "[[-1,0,0,0],[0,-1,0,0],[0,0,1,0],[0,0,0,1]]", m)
              for m in (2, 4)]
    argvs += [congruence_argv(["--lattice", "bpq", "--p", p, "--q", q], "[[1]]", 2)
              for p, q in (("1000000", "1"), ("1", "1000000"))]
    argvs += [congruence_argv(B11, text, 3) for text in ("[" * DEEP, "[" * DEEP + "]" * DEEP)]
    return argvs


def run_congruence_oracle(argv):
    """(exit code, stdout, first stderr line) of the congruence command as
    it ran before, with cli.main's error handling. A run that exits 0 or 1
    prints its timing on stderr, so its stderr line is None."""
    args = cli.build_parser().parse_args(argv)
    try:
        status, payload, _ = eager_cmd_congruence(args)
    except (GeocycleError, ValueError, TypeError, OSError) as e:
        return 2, "", f"error: {e}".splitlines()[0]
    return (0 if status == "ok" else 1), json.dumps(payload) + "\n", None


def run_congruence(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines()[0] if code == 2 else None


@pytest.mark.parametrize("argv", congruence_argvs(), ids=lambda a: a[-3][:40])
def test_congruence_prints_the_oracles_bytes(capsys, argv):
    assert run_congruence(capsys, argv) == run_congruence_oracle(argv)


def test_congruence_prints_the_oracles_bytes_on_fuzzed_matrices(capsys):
    moduli = random.Random(2306)
    lines = set()
    for kind, text, lattice_argv in _matrix_texts(random.Random(2305)):
        argv = congruence_argv(lattice_argv, text, moduli.randint(-1, 6))
        expected = run_congruence_oracle(argv)
        assert run_congruence(capsys, argv) == expected, (kind, argv)
        lines.add(expected[2] or expected[1])
    assert {NOT_AN_ISOMETRY, "error: modulus must be a positive integer",
            "error: congruence membership needs integer entries",
            "error: congruence subgroups sit inside the determinant-one group",
            '{"modulus": 4, "member": true}\n'} <= lines


def test_rank_0_builds_and_walks_to_nothing(walks):
    g = Isometry((), 1, QuadLattice(()))
    assert vars(g)["reflection_rays"] == ()
    assert cartan_dieudonne(g) == [] and spinor_norm(g) == isometries.SquareClass(1, 1)
    assert walks == {"walks": [True], "gram": 0}


def test_non_isometries_are_refused_when_built(walks):
    # the B(1,1) swap, a stretch and a shear, and products nudged by one
    # entry: each capped walk misses the identity, and the one Gram check
    # that follows raises before any translate, walk or congruence test
    l = standard_lattice("bpq", 1, 1)
    cases = [(((0, 1), (1, 0)), 1, l), (((2, 0), (0, 1)), 1, l), (((1, 1), (0, 1)), 1, l)]
    rng = random.Random(2308)
    for l in (standard_lattice("bpq", 2, 3), standard_lattice("k3")):
        for _ in range(4):
            g = verify.random_isometry(l, rng, reflections=rng.randint(1, 4))
            rows = [list(row) for row in g.num]
            rows[rng.randrange(l.rank)][rng.randrange(l.rank)] += rng.choice((-1, 1))
            cases.append((tuple(map(tuple, rows)), g.den, l))
    for num, den, l in cases:
        with pytest.raises(FormNotPreserved, match=f"^{NOT_AN_ISOMETRY[len('error: '):]}$"):
            Isometry(num, den, l)
    assert walks == {"walks": [True] * len(cases), "gram": len(cases)}


def test_a_hand_built_k3_product_costs_one_capped_walk(walks):
    g = Isometry(*cleared(json.loads(k3_reflection_product(11, 5))), standard_lattice("k3"))
    assert walks == {"walks": [True], "gram": 0}
    factors = cartan_dieudonne(g)
    norm = spinor_norm(g)
    assert walks == {"walks": [True], "gram": 0}
    assert factors == eager_cartan_dieudonne(g)
    assert norm == factorization_spinor_norm(factors, g.lattice)


def test_the_spinor_checks_cases_form_no_gram_matrix(walks):
    # products of reflections and their composites are made certified, so
    # verify's 300 spinor cases walk each product once, uncapped, and run
    # no Gram check
    l, cases = verify.spinor_cases(101)
    assert len(cases) == 300
    assert sum(verify.spinor_case(l, case) for case in cases) == 0
    assert walks["gram"] == 0 and set(walks["walks"]) == {False}
