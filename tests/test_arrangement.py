from fractions import Fraction as F

import pytest

import math
import random
import re
import tracemalloc
from itertools import islice

from geocycle import arrangement
from geocycle.arrangement import (
    DEFAULT_BOOST,
    TANGENT_SCAN,
    ArrangementSpec,
    BoostParams,
    RotationPair,
    arrangement_spec,
    base_hyperplane_normal,
    boost_power,
    build_family,
    inequality_details,
    intersection_matrix,
    rotation_from_tangent,
    search_parameters,
    standard_flat,
)
from geocycle.errors import BudgetExceeded, SearchExhausted
from geocycle.grassmann import hyperplane_new, intersect_flat_hyperplane, translate
from geocycle.lattices import eval_form
from geocycle.linalg import perp, span
from oracles import (
    flat_new_standard_flat,
    fraction_inequality_details,
    fraction_negative_tangents,
    fraction_rotation_powers,
    fraction_search_parameters,
    rotation_isometry,
    rotation_power,
    translated_family,
)


def boost_matrix_power_oracle(base: BoostParams, m: int):
    """Independent oracle: m-fold product of [[a, b], [b, a]]."""
    a, b = F(1), F(0)
    for _ in range(m):
        a, b = a * base.a + b * base.b, a * base.b + b * base.a
    return a, b


# -------------------------------------------------------------------- boost


def test_boost_power_zero_is_identity():
    assert boost_power(DEFAULT_BOOST, 0) == BoostParams(F(1), F(0))


def test_boost_power_one():
    assert boost_power(DEFAULT_BOOST, 1) == DEFAULT_BOOST


def test_boost_power_three():
    bp = boost_power(DEFAULT_BOOST, 3)
    assert (bp.a, bp.b) == (F(65, 16), F(63, 16))
    assert bp.a + bp.b == 8
    assert bp.a - bp.b == F(1, 8)
    assert 65 * 65 - 63 * 63 == 256


def test_boost_power_matches_matrix_oracle():
    for base in (DEFAULT_BOOST, BoostParams(F(5, 3), F(4, 3))):
        for m in range(9):
            bp = boost_power(base, m)
            assert (bp.a, bp.b) == boost_matrix_power_oracle(base, m)


def test_boost_power_invariant_up_to_32():
    grow = DEFAULT_BOOST.a + DEFAULT_BOOST.b
    shrink = DEFAULT_BOOST.a - DEFAULT_BOOST.b
    for m in range(33):
        bp = boost_power(DEFAULT_BOOST, m)
        assert bp.a * bp.a - bp.b * bp.b == 1
        assert bp.a + bp.b == grow**m
        assert bp.a - bp.b == shrink**m


def test_boost_validation():
    with pytest.raises(ValueError):
        BoostParams(F(2), F(1))  # 4 - 1 != 1
    with pytest.raises(ValueError):
        BoostParams(F(-5, 4), F(-3, 4))


# ----------------------------------------------------------------- rotation


def test_rotation_from_tangent():
    assert rotation_from_tangent(F(1, 10)) == RotationPair(F(99, 101), F(-20, 101))


def test_rotation_power_zero_and_one():
    r = rotation_from_tangent(F(1, 10))
    assert rotation_power(r, 0) == RotationPair(F(1), F(0))
    assert rotation_power(r, 1) == r


def test_rotation_power_two():
    r = RotationPair(F(99, 101), F(-20, 101))
    assert rotation_power(r, 2) == RotationPair(F(9401, 10201), F(-3960, 10201))


def test_rotation_power_unit_circle_and_additivity():
    r = rotation_from_tangent(F(1, 16))
    for j in range(5):
        for k in range(5):
            a, b, c = rotation_power(r, j), rotation_power(r, k), rotation_power(r, j + k)
            assert (a.c * b.c - a.s * b.s, a.s * b.c + a.c * b.s) == (c.c, c.s)
            assert c.c * c.c + c.s * c.s == 1


def off_circle_pair(c, s):
    """A pair (c, s) built without RotationPair's unit-circle check. On the
    circle c and s always share their reduced denominator; off it they need
    not, and the Gaussian walk is the same complex product either way."""
    r = object.__new__(RotationPair)
    object.__setattr__(r, "c", c)
    object.__setattr__(r, "s", s)
    return r


ROTATIONS = [rotation_from_tangent(t) for t in TANGENT_SCAN] + [
    RotationPair(F(0), F(-1)),
    RotationPair(F(-3, 5), F(4, 5)),
    off_circle_pair(F(1, 2), F(-2, 3)),
]


@pytest.mark.parametrize("r", ROTATIONS, ids=lambda r: f"{r.c},{r.s}")
def test_gaussian_walk_matches_the_fraction_walk(r):
    # r^k = (re + im*i) / D^k in integers, D the lcm of the denominators
    d = math.lcm(r.c.denominator, r.s.denominator)
    walks = zip(arrangement._rotation_powers(*r.cleared[:2]), fraction_rotation_powers(r))
    for k, ((re, im), (c, s)) in enumerate(islice(walks, 301)):
        assert type(re) is int and type(im) is int
        assert (F(re, d**k), F(im, d**k)) == (c, s)


@pytest.mark.parametrize("r", ROTATIONS[:-1], ids=lambda r: f"{r.c},{r.s}")
def test_negative_tangents_match_the_fraction_tangents(r):
    got = arrangement._negative_tangents(*r.cleared[:2], 900)
    assert all(re > 0 for _, re in got)
    assert [F(im, re) for im, re in got] == fraction_negative_tangents(r, 900)
    assert arrangement._negative_tangents(*r.cleared[:2], 3) == got[:3]


@pytest.mark.parametrize("t", [F(1, 3), F(3, 5), F(7, 9), F(1, 10), F(1, 1024)], ids=str)
def test_walk_from_the_tangent_pair_gives_the_fraction_tangents(t):
    # (v^2 - u^2, -2uv, u^2 + v^2) over its content, 2 when u and v are
    # both odd: the search walks this pair and builds no RotationPair
    c, s, d = arrangement._tangent_pair(t)
    r = rotation_from_tangent(t)
    assert (c, s, d) == r.cleared
    assert math.gcd(c, s, d) == 1 and c * c + s * s == d * d
    got = arrangement._negative_tangents(c, s, 900)
    assert [F(im, re) for im, re in got] == fraction_negative_tangents(r, 900)


def test_rotation_validation():
    with pytest.raises(ValueError):
        RotationPair(F(1, 2), F(1, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        ArrangementSpec(1, 3, DEFAULT_BOOST, 1, rotation_from_tangent(F(1, 10)), 1)
    with pytest.raises(ValueError):
        # generator rotation must turn clockwise (s < 0)
        ArrangementSpec(2, 3, DEFAULT_BOOST, 1, RotationPair(F(99, 101), F(20, 101)), 1)


# --------------------------------------------------------------- inequality


def test_inequality_first_power_holds():
    spec = arrangement_spec(2, 3, 5, DEFAULT_BOOST, 3, F(1, 10))
    detail = inequality_details(spec, 1)[-1]
    assert detail.holds
    assert detail.tangent == F(-20, 99)
    assert detail.lower == -8 and detail.upper == F(-1, 8)
    # exact cross-check: 20/99 >= 1/8 because 160 >= 99
    assert 20 * 8 >= 99


def test_inequality_fails_past_quarter_turn():
    spec = arrangement_spec(2, 3, 5, DEFAULT_BOOST, 3, F(1, 10))
    detail = inequality_details(spec, 8)[-1]
    assert not detail.holds
    assert detail.tangent is not None and detail.tangent > 0


def test_inequality_fails_at_zero_rotation_tangent():
    # a boost interval never contains 0, so a zero tangent always fails
    spec = arrangement_spec(2, 3, 5, DEFAULT_BOOST, 3, F(1, 10))
    assert all(inequality_details(spec, k)[-1].upper < 0 for k in (1, 2, 3))


def test_inequality_pole_is_false_with_flag():
    spec = ArrangementSpec(2, 3, DEFAULT_BOOST, 3, RotationPair(F(0), F(-1)), 1)
    detail = inequality_details(spec, 1)[-1]
    assert not detail.holds and detail.pole and detail.tangent is None


def test_inequality_details_match_tangent_addition():
    # tan((k+1)x) = (tan kx + tan x) / (1 - tan kx tan x): an oracle that
    # never multiplies rotation pairs (Pythagorean angles hit no pole)
    for t in (F(1, 10), F(1, 4), F(1, 2)):
        spec = arrangement_spec(2, 3, 0, DEFAULT_BOOST, 3, t)
        first = inequality_details(spec, 1)[-1].tangent
        tan = first
        for k, detail in enumerate(inequality_details(spec, 24), start=1):
            assert detail == inequality_details(spec, k)[-1]
            assert detail.tangent == tan and not detail.pole
            assert detail.holds == (detail.lower <= tan <= detail.upper)
            tan = (tan + first) / (1 - tan * first)
    quarter = ArrangementSpec(2, 3, DEFAULT_BOOST, 3, RotationPair(F(0), F(-1)), 4)
    details = inequality_details(quarter, 4)
    assert [d.pole for d in details] == [True, False, True, False]
    assert [d.tangent for d in details] == [None, 0, None, 0]


def test_inequality_details_match_the_fraction_comparison():
    # the integer window test that the search runs, against the Fraction
    # window of boost_power compared with each Fraction tangent: poles at
    # (0, -1), re < 0 at k = 1 for (-3/5, -4/5), m = 0, and both window
    # ends: under (25/24, 7/24), a + b = 4/3 and a - b = 3/4, and at m = 1
    # the rotation (3/5, -4/5) has tangent -4/3 at k = 1, (4/5, -3/5) -3/4
    boost = BoostParams(F(25, 24), F(7, 24))
    specs = seeded_family_specs(320, 3901) + [
        ArrangementSpec(2, 3, boost, 1, RotationPair(F(3, 5), F(-4, 5)), 4),
        ArrangementSpec(2, 3, boost, 1, RotationPair(F(4, 5), F(-3, 5)), 4),
    ]
    assert any(s.m == 0 for s in specs)
    assert {RotationPair(F(0), F(-1)), RotationPair(F(-3, 5), F(-4, 5))} <= {s.rotation for s in specs}
    details = []
    for spec in specs:
        for n in (spec.n, 40):
            got = inequality_details(spec, n)
            assert got == fraction_inequality_details(spec, n)
            details += got
    assert any(d.pole for d in details) and any(d.holds for d in details)
    assert any(d.holds and d.tangent == d.lower for d in details)
    assert any(d.holds and d.tangent == d.upper for d in details)


def counting_walks(monkeypatch):
    """Patch arrangement._rotation_powers to record each walk's steps under
    the name of the function that started it."""
    import sys

    original = arrangement._rotation_powers
    walks = {}

    def counting(c, s):
        steps = walks.setdefault(sys._getframe(1).f_code.co_name, [])

        def walk():
            for pair in original(c, s):
                steps.append(pair)
                yield pair

        return walk()

    monkeypatch.setattr(arrangement, "_rotation_powers", counting)
    return walks


def test_plot_data_cost_is_linear_in_n(monkeypatch, tmp_path, capsys):
    # the plot rows come from one walk over the rotation powers: n + 1
    # powers (k = 0..n) at every n, not a fresh walk from k = 0 per row.
    # build_family walks the powers too, for the family itself
    from geocycle.cli import main

    walks = counting_walks(monkeypatch)
    for n in (4, 40):
        walks.clear()
        path = tmp_path / f"plot{n}.csv"
        argv = ["arrange", "--p", "2", "--q", "3", "--n", str(n), "--m", "3", "--t", "1/10",
                "--emit-plot-data", str(path)]
        assert main(argv) in (0, 1)
        capsys.readouterr()
        assert len(walks["inequality_details"]) == n + 1
        rows = path.read_text(encoding="utf-8").splitlines()
        assert len(rows) == n + 1
        d = inequality_details(arrangement_spec(2, 3, n, DEFAULT_BOOST, 3, F(1, 10)), n)[-1]
        assert rows[-1] == f"{n},{d.tangent},{d.lower},{d.upper}"


# ------------------------------------------------------------------- family


def test_family_base_normal_m3():
    spec = arrangement_spec(2, 3, 0, DEFAULT_BOOST, 3, F(1, 10))
    lam = base_hyperplane_normal(spec)
    assert lam == (F(63, 16), F(0), F(65, 16), F(1), F(0))
    assert eval_form(spec.lattice(), lam, lam) == -2


def test_family_hyperplanes_are_rotated_copies():
    spec = arrangement_spec(2, 3, 3, DEFAULT_BOOST, 3, F(1, 10))
    flats, hypers = build_family(spec)
    l = spec.lattice()
    base = hyperplane_new(base_hyperplane_normal(spec), l)
    for k in range(4):
        rk = rotation_isometry(rotation_power(spec.rotation, k), 2, 3)
        assert hypers[k] == translate(rk, base)
        assert flats[k] == translate(rk, standard_flat(2, 3))


def test_family_cost_is_linear_in_n(monkeypatch):
    # each flat and hyperplane is read off the n + 1 rotation powers of one
    # walk, and the base flat is built in closed form: no Isometry is made
    # and no RREF runs, at any n
    import geocycle.linalg as linalg
    from geocycle.isometries import Isometry

    counts = {}
    original = Isometry.__post_init__

    def made(self):
        counts["Isometry"] = counts.get("Isometry", 0) + 1
        original(self)

    real_echelon = linalg._echelon

    def echelon(*args):
        counts["_echelon"] = counts.get("_echelon", 0) + 1
        return real_echelon(*args)

    monkeypatch.setattr(Isometry, "__post_init__", made)
    monkeypatch.setattr(linalg, "_echelon", echelon)
    walks = counting_walks(monkeypatch)
    seen = []
    for n in (5, 32):
        spec = arrangement_spec(3, 4, n, DEFAULT_BOOST, *search_parameters(n, DEFAULT_BOOST))
        counts.clear()
        walks.clear()
        flats, hypers = build_family(spec)
        assert len(flats) == len(hypers) == n + 1
        assert list(walks) == ["build_family"] and len(walks["build_family"]) == n + 1
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert "Isometry" not in seen[0] and "_echelon" not in seen[0]


FAMILY_BOOSTS = [DEFAULT_BOOST, BoostParams(F(5, 3), F(4, 3)), BoostParams(F(13, 12), F(5, 12))]
FAMILY_ROTATIONS = [
    RotationPair(F(3, 5), F(-4, 5)),
    RotationPair(F(-3, 5), F(-4, 5)),
    RotationPair(F(0), F(-1)),
    RotationPair(F(-119, 169), F(-120, 169)),
    *(rotation_from_tangent(t) for t in (F(1, 3), F(3, 5), F(7, 9), F(1, 10))),
]


def seeded_family_specs(count, seed):
    """Specs over p <= q <= 9, n <= 20 and m <= 6, cycling through the
    explicit rotations and tangents with u and v both odd, then random
    tangents; every third spec has p = q, and the first ones n = 0 and m = 0."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        q = rng.randint(2, 9)
        p = q if i % 3 == 0 else rng.randint(2, q)
        if i < len(FAMILY_ROTATIONS):
            rotation = FAMILY_ROTATIONS[i]
        else:
            rotation = rotation_from_tangent(F(rng.randint(1, 12), rng.randint(1, 12)))
        n = 0 if i % 7 == 0 else rng.randint(1, 20)
        m = 0 if i % 5 == 0 else rng.randint(1, 6)
        specs.append(ArrangementSpec(p, q, rng.choice(FAMILY_BOOSTS), m, rotation, n))
    return specs


def assert_family_is_the_translated_family(spec):
    flats, hypers = build_family(spec)
    old_flats, old_hypers = translated_family(spec)
    assert [(f.block_rows, f.int_rest) for f in flats] == [
        (f.block_rows, f.int_rest) for f in old_flats
    ]
    assert [h.normal for h in hypers] == [h.normal for h in old_hypers]
    assert flats == old_flats and hypers == old_hypers


def test_family_is_the_translated_family_on_seeded_specs():
    specs = seeded_family_specs(320, 3801)
    assert any(s.n == 0 for s in specs) and any(s.m == 0 for s in specs)
    assert any(s.p == s.q for s in specs)
    for spec in specs:
        assert_family_is_the_translated_family(spec)


@pytest.mark.parametrize("p,q", [(3, 19), (8, 8)])
def test_family_is_the_translated_family_at_n_32(p, q):
    m, t = search_parameters(32, DEFAULT_BOOST)
    assert_family_is_the_translated_family(arrangement_spec(p, q, 32, DEFAULT_BOOST, m, t))


def test_rotated_block_cut_line_has_the_derived_ratio():
    # the line the complement cuts out of the rotated first block is
    # X * r^k(e_1) + Y * r^k(f_1) with X/Y = a_m/b_m + tan(k angle)/b_m,
    # so its positivity is exactly the tangent inequality failing
    spec = arrangement_spec(2, 3, 5, DEFAULT_BOOST, 3, F(1, 10))
    flats, hypers = build_family(spec)
    bp = boost_power(DEFAULT_BOOST, 3)
    from geocycle.linalg import intersect, span

    complement = perp(span([hypers[0].normal], ambient=5), spec.lattice())
    for k in (1, 2, 3):
        rk = rotation_power(spec.rotation, k)
        tangent = rk.s / rk.c
        ratio = bp.a / bp.b + tangent / bp.b
        line = intersect(complement, flats[k].blocks[0])
        assert line.dim == 1
        rot_e1 = (rk.c, rk.s, F(0), F(0), F(0))
        rot_f1 = (F(0), F(0), rk.c, rk.s, F(0))
        expected = span([tuple(ratio * a + b for a, b in zip(rot_e1, rot_f1))], ambient=5)
        assert line == expected


def test_complement_matches_explicit_spanning_set():
    # the boosted normal's orthogonal complement equals the explicit span
    # <e_1^m, e_2, f_1^m - f_2, f_3> in B(2,3)
    spec = arrangement_spec(2, 3, 0, DEFAULT_BOOST, 3, F(1, 10))
    l = spec.lattice()
    h = hyperplane_new(base_hyperplane_normal(spec), l)
    a, b = F(65, 16), F(63, 16)
    explicit = span(
        [
            (a, 0, b, 0, 0),  # boosted e_1
            (0, 1, 0, 0, 0),  # e_2
            (b, 0, a, -1, 0),  # boosted f_1 minus f_2
            (0, 0, 0, 0, 1),  # f_3
        ],
        ambient=5,
    )
    assert perp(span([h.normal], ambient=5), l) == explicit


# ------------------------------------------------------------------- matrix


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3)])
def test_intersection_matrix_pattern(p, q):
    m, t = search_parameters(5, DEFAULT_BOOST)
    matrix = intersection_matrix(arrangement_spec(p, q, 5, DEFAULT_BOOST, m, t))
    assert matrix.lower_triangular
    assert matrix.shift_consistent
    for i in range(6):
        assert matrix.verdicts[i][i].tag == "Point"
        for j in range(i + 1, 6):
            assert matrix.verdicts[i][j].tag == "Empty"


def test_matrix_csv_cells():
    m, t = search_parameters(2, DEFAULT_BOOST)
    matrix = intersection_matrix(arrangement_spec(2, 3, 2, DEFAULT_BOOST, m, t))
    lines = matrix.to_csv().strip().split("\n")
    assert len(lines) == 3
    assert all(cell in {"E", "P", "D"} for line in lines for cell in line.split(","))



def test_first_row_empty_where_inequality_holds():
    spec = arrangement_spec(2, 3, 5, DEFAULT_BOOST, 3, F(1, 10))
    matrix = intersection_matrix(spec)
    for k, detail in enumerate(inequality_details(spec, 5), start=1):
        if detail.holds:
            assert matrix.verdicts[0][k].tag == "Empty"


def test_inequality_implies_empty_on_grid():
    for s in (2, 3):
        boost = BoostParams(F(s * s + 1, 2 * s), F(s * s - 1, 2 * s))
        for m in (1, 3):
            spec = ArrangementSpec(2, 3, boost, m, rotation_from_tangent(F(1, 10)), 12)
            flats, hypers = build_family(spec)
            for k, detail in enumerate(inequality_details(spec, 12), start=1):
                if detail.holds:
                    assert intersect_flat_hyperplane(flats[k], hypers[0]).tag == "Empty"


# ------------------------------------------------------------------- search


def test_search_parameters_2_3_5():
    assert search_parameters(5, DEFAULT_BOOST) == (3, F(1, 10))


def test_search_parameters_reusable_for_smaller_n():
    assert search_parameters(1, DEFAULT_BOOST) == (3, F(1, 10))


def test_search_exhausted_for_huge_family():
    with pytest.raises(SearchExhausted):
        search_parameters(10**6, DEFAULT_BOOST)


def test_search_rejects_empty_family():
    with pytest.raises(ValueError):
        search_parameters(0, DEFAULT_BOOST)


def test_search_refuses_a_trivial_boost_before_any_walk(monkeypatch):
    # no (m, t) can work for the identity boost, so the search names that
    # cause rather than running out of its grid
    monkeypatch.setattr(arrangement, "_negative_tangents", None)
    with pytest.raises(ValueError, match=r"^the family generator needs a nontrivial boost \(b > 0\)$"):
        search_parameters(5, BoostParams(1, 0))


def test_searched_parameters_satisfy_all_inequalities():
    for n in (1, 3, 5, 8):
        m, t = search_parameters(n, DEFAULT_BOOST)
        spec = arrangement_spec(2, 3, n, DEFAULT_BOOST, m, t)
        assert all(detail.holds for detail in inequality_details(spec, n))
        # deterministic: repeated searches agree
        assert search_parameters(n, DEFAULT_BOOST) == (m, t)


def search_outcome(search, n, boost):
    try:
        return search(n, boost)
    except SearchExhausted:
        return SearchExhausted


BOOSTS = [DEFAULT_BOOST, BoostParams(F(5, 3), F(4, 3)), BoostParams(F(17, 8), F(15, 8))]
SEARCH_BOOSTS = [
    DEFAULT_BOOST,
    BoostParams(F(5, 3), F(4, 3)),
    BoostParams(F(13, 12), F(5, 12)),
    BoostParams(F(41, 40), F(9, 40)),
]


@pytest.mark.parametrize("boost", BOOSTS, ids=lambda b: f"{b.a},{b.b}")
def test_search_matches_the_fraction_search(boost):
    for n in [*range(1, 25), 32, 64, 128, 256, 400, 500]:
        expected = search_outcome(fraction_search_parameters, n, boost)
        assert search_outcome(search_parameters, n, boost) == expected


@pytest.mark.parametrize("boost", SEARCH_BOOSTS, ids=lambda b: f"{b.a},{b.b}")
def test_search_matches_the_fraction_search_for_every_n_to_80(boost):
    # the bounds read as integer powers of a + b and a - b, the tangents
    # walked from the integer pair of each scan tangent
    for n in range(1, 81):
        expected = search_outcome(fraction_search_parameters, n, boost)
        assert search_outcome(search_parameters, n, boost) == expected
    with pytest.raises(SearchExhausted):
        search_parameters(10**6, boost)


def test_search_matches_the_fraction_search_at_the_scan_limit():
    # t = 1/1024 keeps its tangent negative for k <= 804 and no further
    assert search_parameters(804, DEFAULT_BOOST) == (12, F(1, 1024))
    for n in (804, 805):
        expected = search_outcome(fraction_search_parameters, n, DEFAULT_BOOST)
        assert search_outcome(search_parameters, n, DEFAULT_BOOST) == expected
    assert expected is SearchExhausted


def test_boost_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="boost power wants a nonnegative exponent"):
        boost_power(DEFAULT_BOOST, -1)


def test_standard_flat_needs_p_at_most_q():
    # with p > q there are not p negative directions to pair with the e_i:
    # refused before any row is built
    with pytest.raises(ValueError, match=r"^a standard flat needs p <= q, got p=3, q=2$"):
        standard_flat(3, 2)


@pytest.mark.parametrize("q", range(1, 8))
def test_standard_flat_pairs_each_e_i_with_f_i(q):
    for p in range(1, q + 1):
        e = [tuple(int(i == j) for j in range(p + q)) for i in range(p + q)]
        flat = standard_flat(p, q)
        assert flat.block_rows == tuple((e[i], e[p + i]) for i in range(p))
        assert [t[2:5] for t in flat.block_terms] == [(1, 0, -1)] * p
        assert flat.int_rest == tuple(e[2 * p:])


def test_standard_flat_is_the_flat_new_construction():
    # the closed form against the unit rows certified by flat_new, on every
    # signature 1 <= p <= q with p + q <= 64
    for q in range(1, 64):
        for p in range(1, min(q, 64 - q) + 1):
            flat, old = standard_flat(p, q), flat_new_standard_flat(p, q)
            assert (flat.block_rows, flat.int_rest) == (old.block_rows, old.int_rest)
            assert flat == old and flat.lattice is old.lattice


@pytest.mark.parametrize("p,q", [(3, 2), (0, 3), (0, 0), (-1, 2), (32, 33), (1, 64), (40, 40)])
def test_standard_flat_refuses_as_the_flat_new_construction(p, q):
    with pytest.raises((ValueError, BudgetExceeded)) as old:
        flat_new_standard_flat(p, q)
    with pytest.raises(old.type, match=f"^{re.escape(str(old.value))}$"):
        standard_flat(p, q)


def test_standard_flat_checks_the_rank_before_any_row():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"got p \+ q = 3000$"):
            standard_flat(1500, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
