"""Seeded fuzz sweeps across module boundaries.

These go beyond the per-module unit tests: reconstruction identities are
checked bit-exactly on randomly generated inputs, including the degenerate
shapes the targeted tests do not reach.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from geocycle import linalg
from geocycle.arrangement import (
    DEFAULT_BOOST,
    arrangement_spec,
    intersection_matrix,
    rotation_from_tangent,
    search_parameters,
)
from geocycle.grassmann import general_position, hyperplane_new, translate
from geocycle.isometries import (
    cartan_dieudonne,
    compose,
    product_of_reflections,
    reflection,
)
from geocycle.lattices import combine, eval_form, quad_lattice, standard_lattice
from geocycle.obstructions import ROOT_NORM, enumerate_roots
from geocycle.signs import random_admissible_v
from geocycle.verify import random_isometry
from oracles import rotation_isometry, transpose


def test_symmetric_diagonalization_reconstructs_exactly():
    rng = random.Random(211)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
        m = tuple(tuple(r) for r in rows)
        diag, t = linalg.diagonalize_symmetric(m)
        product = linalg.mat_mul(linalg.mat_mul(t, m), transpose(t))
        expected = tuple(
            tuple(diag[i] if i == j else F(0) for j in range(n)) for i in range(n)
        )
        assert product == expected


def test_root_enumeration_fuzz_against_naive():
    rng = random.Random(223)
    tried = 0
    while tried < 20:
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        try:
            l = quad_lattice(rows)
        except Exception:
            continue
        tried += 1
        bound = rng.randint(1, 3)
        naive = sorted(
            v
            for v in itertools.product(range(-bound, bound + 1), repeat=n)
            if eval_form(l, v, v) == ROOT_NORM
        )
        assert enumerate_roots(l, bound) == naive


def test_cartan_dieudonne_on_the_rank_22_lattice():
    k3 = standard_lattice("k3")
    rng = random.Random(227)
    g = product_of_reflections([], k3)
    for _ in range(3):
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(22))
            if any(v) and eval_form(k3, v, v) != 0:
                break
        g = compose(g, reflection(v, k3))
    factors = cartan_dieudonne(g)
    assert len(factors) <= 44
    assert product_of_reflections(factors, k3).matrix == g.matrix


def test_general_position_is_isometry_invariant():
    rng = random.Random(229)
    l = standard_lattice("bpq", 2, 3)
    from geocycle.arrangement import standard_flat

    flat = standard_flat(2, 3)
    normals = [
        (F(1), F(0), F(2), F(1), F(1)),
        (F(2), F(0), F(1), F(1), F(3)),
        (F(0), F(0), F(1), F(1), F(1)),
    ]
    for lam in normals:
        hyper = hyperplane_new(lam, l)
        for mode in ("weak", "strong"):
            base = general_position(flat, hyper, mode)
            for _ in range(5):
                g = random_isometry(l, rng)
                assert general_position(translate(g, flat), translate(g, hyper), mode) == base


def test_translate_point_through_rotation():
    spec = arrangement_spec(2, 2, 1, DEFAULT_BOOST, 3, F(1, 10))
    from geocycle.grassmann import intersect_flat_hyperplane
    from geocycle.arrangement import build_family
    from oracles import rotation_power

    flats, hypers = build_family(spec)
    point = intersect_flat_hyperplane(flats[0], hypers[0]).point
    r = rotation_isometry(rotation_power(spec.rotation, 1), 2, 2)
    moved = translate(r, point)
    target = intersect_flat_hyperplane(flats[1], hypers[1]).point
    assert moved.plane == target.plane


def test_rotation_isometry_needs_two_blocks():
    with pytest.raises(ValueError):
        rotation_isometry(rotation_from_tangent(F(1, 10)), 1, 2)


def test_larger_family_keeps_the_pattern():
    # n = 10 needs a slower rotation than n = 5; the search finds one and
    # the full 11 x 11 table still comes out lower triangular
    m, t = search_parameters(10, DEFAULT_BOOST)
    assert t != F(1, 10)
    matrix = intersection_matrix(arrangement_spec(2, 3, 10, DEFAULT_BOOST, m, t))
    assert matrix.lower_triangular and matrix.shift_consistent


def test_combined_lattice_roots_split_blockwise():
    # roots of a direct sum supported on one block match the block's roots
    h = standard_lattice("hyperbolic")
    neg2 = quad_lattice([[-2]])
    total = combine(h, neg2)
    roots = enumerate_roots(total, 2)
    block_h = {(r[0], r[1]) for r in roots if r[2] == 0}
    block_n = {(r[2],) for r in roots if (r[0], r[1]) == (0, 0)}
    assert block_h == set(enumerate_roots(h, 2))
    assert block_n == set(enumerate_roots(neg2, 2))


def _matrix_texts(rng):
    """(label, --matrix text, lattice argv) triples across the input boundary."""
    lattices = [
        (["--lattice", "bpq", "--p", "1", "--q", "1"], standard_lattice("bpq", 1, 1)),
        (["--lattice", "bpq", "--p", "2", "--q", "3"], standard_lattice("bpq", 2, 3)),
        (["--lattice", "hyperbolic"], standard_lattice("hyperbolic")),
        (["--lattice", "e8_neg"], standard_lattice("e8_neg")),
        (["--lattice", "k3"], standard_lattice("k3")),
    ]

    def entry():
        return rng.choice([
            rng.randint(-3, 3),
            f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
            10 ** rng.randint(20, 400) * rng.choice([-1, 1]),
        ])

    def dumps(rows):
        return json.dumps(rows)

    def isometry_rows(l, k):
        vectors = []
        while len(vectors) < k:
            v = tuple(rng.randint(-2, 2) for _ in range(l.rank))
            if any(v) and eval_form(l, v, v) != 0:
                vectors.append(v)
        g = product_of_reflections(vectors, l)
        return [[int(x) if x.denominator == 1 else str(x) for x in row] for row in g.matrix]

    for _ in range(240):
        lattice_argv, l = rng.choice(lattices[:4] if rng.random() < 0.9 else lattices)
        n = l.rank
        kind = rng.choice([
            "ragged", "empty", "empty_row", "non_square", "zero_den", "float", "object",
            "object_rows", "string_rows", "huge_int", "too_many_digits", "bool", "null",
            "nested", "not_json", "non_isometry", "isometry", "near_isometry",
        ])
        if kind == "ragged":
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)].pop()
            text = dumps(rows)
        elif kind == "empty":
            text = "[]"
        elif kind == "empty_row":
            text = "[[]]"
        elif kind == "non_square":
            text = dumps([[entry() for _ in range(n + rng.choice([-1, 1]))] for _ in range(n)])
        elif kind == "zero_den":
            rows = isometry_rows(l, 1)
            rows[0][0] = "1/0"
            text = dumps(rows)
        elif kind == "float":
            rows = isometry_rows(l, 1)
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([0.5, 1.0, 1e3])
            text = dumps(rows).replace("1000.0", rng.choice(["1e3", "NaN", "Infinity"]))
        elif kind == "object":
            text = dumps({str(i): i for i in range(n)})
        elif kind == "object_rows":
            text = dumps([{str(j): int(i == j) for j in range(n)} for i in range(n)])
        elif kind == "string_rows":
            text = dumps(["".join("1" if i == j else "0" for j in range(n)) for i in range(n)])
        elif kind == "huge_int":
            rows = isometry_rows(l, 0)
            rows[rng.randrange(n)][rng.randrange(n)] = 10 ** rng.randint(50, 4000)
            text = dumps(rows)
        elif kind == "too_many_digits":
            text = "[[1" + "0" * 5000 + "]]"
        elif kind == "bool":
            rows = isometry_rows(l, 0)
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([True, False])
            text = dumps(rows)
        elif kind == "null":
            rows = isometry_rows(l, 1)
            rows[rng.randrange(n)][rng.randrange(n)] = None
            text = dumps(rows)
        elif kind == "nested":
            text = dumps([[[entry()] for _ in range(n)] for _ in range(n)])
        elif kind == "not_json":
            text = rng.choice(["[[1,2", "abc", "", "[[1 2]]", "'[[1]]'"])
        elif kind == "non_isometry":
            text = dumps([[entry() for _ in range(n)] for _ in range(n)])
        elif kind == "isometry":
            text = dumps(isometry_rows(l, rng.randint(0, 4)))
        else:
            rows = isometry_rows(l, rng.randint(1, 3))
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = str(F(rows[i][j]) + F(1, rng.randint(1, 50)))
            text = dumps(rows)
        yield kind, text, lattice_argv


def test_matrix_argument_fuzz(capsys):
    # the --matrix argument of spinor and congruence: any text exits 0, 1
    # or 2 without a traceback, and 0/1 print exactly one JSON document
    from geocycle.cli import main

    rng = random.Random(233)
    seen = set()
    for kind, text, lattice_argv in _matrix_texts(rng):
        seen.add(kind)
        if rng.random() < 0.5:
            argv = ["spinor", *lattice_argv, "--matrix", text]
        else:
            modulus = str(rng.randint(-1, 6))
            argv = ["congruence", *lattice_argv, "--matrix", text, "--modulus", modulus]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (kind, argv)
        assert "Traceback" not in err, (kind, argv)
        if code in (0, 1):
            assert out.endswith("\n") and out.count("\n") == 1, (kind, argv)
            json.loads(out)
        else:
            assert out == "" and "error:" in err, (kind, argv)
        if kind == "isometry" and argv[0] == "spinor":
            assert code == 0, (kind, argv)
        if kind not in ("isometry", "huge_int", "non_isometry"):
            assert code == 2, (kind, argv)
    assert len(seen) == 18


def _fuzz_rational(rng):
    return rng.choice([
        str(rng.randint(-3, 3)),
        f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
        f"{rng.randint(-9, 9)}/0",
        rng.choice(["", "x", "1.5", "1e3", "1e5000", "nan", "--", "3//4", " 1"]),
    ])


def _fuzz_int(rng, lo, hi):
    return str(rng.randint(lo, hi)) if rng.random() < 0.9 else rng.choice(["", "x", "1.5", "1e3"])


# ranks far past lattices.MAX_RANK, refused before any allocation
HUGE_SIZES = ("1000000", "1000000000")


def _fuzz_size(rng, lo, hi):
    return rng.choice(HUGE_SIZES) if rng.random() < 0.1 else _fuzz_int(rng, lo, hi)


# root bounds whose coordinate ranges are longer than sys.maxsize (the second
# is 2^62): on B(p,q) the node budget refuses them before any node is visited,
# but not on B(1,1), which has no roots at all (x^2 - y^2 is never -2 mod 8)
HUGE_BOUNDS = ("99999999999999999999", "4611686018427387904")


def _fuzz_bound(rng, lo, hi):
    return rng.choice(HUGE_BOUNDS) if rng.random() < 0.25 else _fuzz_int(rng, lo, hi)


def _signs_argv(rng):
    p, q = rng.randint(-1, 6), rng.randint(-1, 6)
    if 1 <= p <= q and rng.random() < 0.6:
        coords = random_admissible_v(p, q, rng).coords[: rng.choice([p, q])]
        v = ",".join(str(x) for x in coords)
    else:
        v = ",".join(_fuzz_rational(rng) for _ in range(rng.randint(0, 7)))
    p, q = str(p), str(q)
    if rng.random() < 0.1:  # with --v of p coordinates, a huge q would be padded
        p, q = (p, rng.choice(HUGE_SIZES)) if rng.random() < 0.5 else (rng.choice(HUGE_SIZES), q)
    return ["signs", "--p", p, "--q", q, "--v", v]


def _lattice_options(rng, flag):
    kind = rng.choice(["bpq", "bpq", "hyperbolic", "e8_pos", "e8_neg", "k3", "leech", ""])
    argv = [flag, kind]
    for name in ("--p", "--q"):
        if rng.random() < 0.8:
            argv += [name, _fuzz_size(rng, -1, 4)]
    return argv


def _roots_argv(rng):
    if rng.random() < 0.2:
        block = rng.choice(["h:1", "h:3", "e8:1", "e8:2", "e8:3", "x"])
        return ["roots", "--lattice", rng.choice(["k3", "k3", "bpq"]), "--bound",
                _fuzz_bound(rng, -1, 2), "--block", block]
    argv = ["roots", *_lattice_options(rng, "--lattice"), "--bound", _fuzz_bound(rng, -2, 2)]
    if "k3" in argv:  # k3 at bound 1 already exits 2 on the node budget, slowly
        argv[argv.index("--bound") + 1] = "0"
    return argv


def _lattice_argv(rng):
    return ["lattice", *_lattice_options(rng, "--kind")] + (["--classify"] if rng.random() < 0.5 else [])


def _spec_json(rng):
    def pair():
        return rng.choice([
            [_fuzz_rational(rng), _fuzz_rational(rng)],
            ["5/4", "3/4"],
            [1],
            [],
            "5/4",
            {"0": 1, "1": 2},
            None,
            3,
        ])

    if rng.random() < 0.2:  # a valid spec but for one size given as a float or a boolean
        doc = {"p": 2, "q": 3, "n": rng.randint(1, 3), "m": 3, "boost": ["5/4", "3/4"], "t": "1/10"}
        key = rng.choice(["p", "q", "n", "m"])
        doc[key] = rng.choice([float(doc[key]), doc[key] + 0.5, True])
        return json.dumps(doc)
    doc = {
        "p": rng.randint(-1, 3), "q": rng.randint(-1, 4), "n": rng.randint(-1, 5),
        "m": rng.choice([rng.randint(-1, 4), "2", None, [1]]), "boost": pair(),
    }
    doc["rotation" if rng.random() < 0.5 else "t"] = pair() if rng.random() < 0.5 else _fuzz_rational(rng)
    for key in ("p", "q", "n", "m"):
        if rng.random() < 0.25:  # a JSON float or boolean, integer-valued or not
            doc[key] = rng.choice([2.0, 3.0, 2.9, 3.5, -1.5, 1e3, True, False])
    for key in list(doc):
        if rng.random() < 0.1:
            del doc[key]
    return json.dumps(doc if rng.random() < 0.9 else rng.choice([[doc], "x", 3]))


def _arrange_argv(rng):
    if rng.random() < 0.3:
        return ["arrange", "--spec-json", _spec_json(rng)]
    argv = ["arrange"]
    for name, lo, hi in (("--p", -1, 3), ("--q", -1, 4), ("--n", -1, 8)):
        if rng.random() < 0.9:
            argv += [name, _fuzz_int(rng, lo, hi)]
    if rng.random() < 0.6:
        argv.append("--auto-params")
    else:
        argv += ["--m", _fuzz_int(rng, -1, 5), "--t", _fuzz_rational(rng)]
    if rng.random() < 0.3:
        argv += ["--boost-a", _fuzz_rational(rng), "--boost-b", _fuzz_rational(rng)]
    return argv


@pytest.mark.parametrize(
    "key,cap", [("n", 256), ("q", 32), ("m", 64)], ids=["n", "q", "m"]
)
def test_arrangement_caps_at_the_boundary(key, cap):
    # the cap itself is accepted and one past it is refused, from a
    # --spec-json document and from the flags' constructor alike; no
    # family is built
    from geocycle.arrangement import arrangement_spec_from_dict
    from geocycle.errors import BudgetExceeded

    doc = {"p": 2, "q": 3, "n": 5, "m": 3, "boost": ["5/4", "3/4"], "t": "1/10"}
    for value, ok in ((cap, True), (cap + 1, False)):
        sizes = {**doc, key: value}
        args = (2, sizes["q"], sizes["n"], DEFAULT_BOOST, sizes["m"], F(1, 10))
        for make in (lambda: arrangement_spec_from_dict(sizes), lambda: arrangement_spec(*args)):
            if ok:
                assert getattr(make(), key) == value
            else:
                with pytest.raises(BudgetExceeded, match=f"{key} <= {cap}, got {key} = {value}"):
                    make()


def test_entry_bit_budget_at_the_boundary():
    # n * bits(D) + m * bits(boost) at the cap is accepted and past it
    # refused, from a --spec-json document and from the flags' constructor
    # alike: t = 1/2^254 has D = 4^254 + 1 of 509 bits, and the default
    # boost's longest numerator or denominator (5/4, 3/4) has 3 bits
    from geocycle.arrangement import MAX_ENTRY_BITS, arrangement_spec_from_dict, entry_bits
    from geocycle.errors import BudgetExceeded

    t = F(1, 2**254)
    for m, bits in ((10, 5120), (11, 5123)):
        doc = {"p": 2, "q": 3, "n": 10, "m": m, "boost": ["5/4", "3/4"], "t": str(t)}
        makes = (lambda: arrangement_spec_from_dict(doc),
                 lambda: arrangement_spec(2, 3, 10, DEFAULT_BOOST, m, t))
        for make in makes:
            if bits <= MAX_ENTRY_BITS:
                spec = make()
                assert entry_bits(spec.n, spec.m, spec.boost, spec.rotation) == bits
            else:
                with pytest.raises(BudgetExceeded, match=f"<= {MAX_ENTRY_BITS}, got {bits}$"):
                    make()


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_every_searched_family_is_within_the_entry_bit_budget(n):
    # the paper-scale families, (g, g) and (3,19) up to n = 256, stay runnable
    from geocycle.arrangement import MAX_ENTRY_BITS, entry_bits

    m, t = search_parameters(n, DEFAULT_BOOST)
    assert entry_bits(n, m, DEFAULT_BOOST, rotation_from_tangent(t)) <= MAX_ENTRY_BITS


def _large_tangent(rng):
    bits = rng.choice([40, 200, 1000, 5000])
    return f"{rng.getrandbits(bits) + 1}/{rng.getrandbits(bits) + 1}"


def _large_boost(rng):
    """(a, b) = ((s^2 + 1)/2s, (s^2 - 1)/2s), a boost for any s > 1; now and
    then b is off by one and the pair is no boost."""
    s = rng.getrandbits(rng.choice([40, 200, 1000, 3000])) + 2
    a, b = F(s * s + 1, 2 * s), F(s * s - 1, 2 * s)
    if rng.random() < 0.1:
        b += 1
    return str(a), str(b)


def test_large_bit_arrange_argv_fuzz(capsys):
    # large-bit --t and boost draws, from the flags and from --spec-json:
    # exit 0, 1 or 2 without a traceback, and a family past the entry-bit
    # budget exits 2 with the budget's message before any work
    from geocycle.arrangement import MAX_ENTRY_BITS, BoostParams, entry_bits
    from geocycle.cli import main

    rng = random.Random(241)
    refused = ran = 0
    for _ in range(60):
        p, q = rng.choice([(2, 3), (3, 4)])
        n, m = rng.choice([1, 2, 8, 16]), rng.choice([1, 2, 8, 64])
        t = _large_tangent(rng) if rng.random() < 0.7 else "1/10"
        boost = _large_boost(rng) if rng.random() < 0.5 else ("5/4", "3/4")
        if rng.random() < 0.5:
            doc = {"p": p, "q": q, "n": n, "m": m, "boost": list(boost), "t": t}
            argv = ["arrange", "--spec-json", json.dumps(doc)]
        else:
            argv = ["arrange", "--p", str(p), "--q", str(q), "--n", str(n), "--m", str(m),
                    "--t", t, "--boost-a", boost[0], "--boost-b", boost[1]]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        assert (out == "") == (code == 2), argv
        a, b = map(F, boost)
        if a * a - b * b != 1:
            assert code == 2, argv
            continue
        bits = entry_bits(n, m, BoostParams(a, b), rotation_from_tangent(F(t)))
        if bits > MAX_ENTRY_BITS:
            refused += 1
            assert code == 2 and "arrange takes n*bits" in err and elapsed < 1.0, argv
        else:
            ran += code in (0, 1)
    assert refused >= 10 and ran >= 10


def _has_non_integer_size(spec_json):
    """A --spec-json object whose p, q, n or m is a JSON float or boolean."""
    doc = json.loads(spec_json)
    return isinstance(doc, dict) and any(
        isinstance(doc.get(key), (bool, float)) for key in ("p", "q", "n", "m")
    )


def test_command_line_argv_fuzz(capsys):
    # seeded argv for every subcommand but spinor/congruence (their --matrix
    # is fuzzed above): exit 0, 1 or 2 without a traceback; 0/1 print
    # exactly one JSON document and 2 prints nothing on stdout; a spec whose
    # p, q, n or m is a float or a boolean exits 2, and so does a root bound
    # past sys.maxsize on B(p,q)
    from geocycle.cli import main

    rng = random.Random(239)
    makers = [_signs_argv, _roots_argv, _lattice_argv, _arrange_argv]
    argvs = [rng.choice(makers)(rng) for _ in range(160)]
    argvs += [["verify-all", "--seed", "7"], ["--seed", "8", "verify-all"]]
    argvs += [["roots", "--lattice", "bpq", "--p", "1", "--q", str(q), "--bound", bound]
              for q, bound in zip((3, 2), HUGE_BOUNDS)]
    codes = set()
    non_integer = huge = huge_bound = 0
    for argv in argvs:
        if rng.random() < 0.2 and argv[0] != "arrange":
            argv = ["--csv", *argv] if rng.random() < 0.5 else [*argv, "--json"]
        start = time.perf_counter()
        code = main(argv)
        if ("signs" in argv or "bpq" in argv) and any(x in HUGE_SIZES for x in argv):
            huge += 1
            assert code == 2 and time.perf_counter() - start < 1.0, argv
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code in (0, 1):
            assert out.endswith("\n") and out.count("\n") == 1, argv
            json.loads(out)
        else:
            assert out == "", argv
        if argv[:2] == ["arrange", "--spec-json"] and _has_non_integer_size(argv[2]):
            non_integer += 1
            assert code == 2, argv
        if any(x in HUGE_BOUNDS for x in argv):
            huge_bound += 1
            assert code == 2 or "bpq" not in argv, argv
    assert {0, 2} <= codes
    assert non_integer >= 3
    assert huge >= 3
    assert huge_bound >= 3
