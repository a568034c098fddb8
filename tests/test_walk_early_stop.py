"""The Cartan-Dieudonne walk stops once its map is the identity, and the
spinor norm reads the Qs its walk carries.

The oracle is eager_cartan_dieudonne (tests/oracles.py): the full walk over
every orthogonal ray with no early stop. cartan_dieudonne must return its
vectors on the spinor check's own draws, on seeded K3 reflection products
and on +-1; product_of_reflections, which writes its rightmost factor
directly, must equal a Fraction product of explicit reflection matrices.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from geocycle import isometries, linalg, verify
from geocycle.errors import CertificateFailed, FormNotPreserved, IsotropicVector
from geocycle.isometries import (
    Isometry,
    SquareClass,
    cartan_dieudonne,
    compose,
    product_of_reflections,
    reflection,
    spinor_norm,
)
from geocycle.lattices import ray, standard_lattice
from geocycle.linalg import cleared
from oracles import eager_cartan_dieudonne, factorization_spinor_norm, frac_cleared
from test_cli import K3_MINUS_ONE, k3_reflection_product

K3 = standard_lattice("k3")
B23 = standard_lattice("bpq", 2, 3)


def spinor_check_draws(seed):
    """The isometries check_spinor_norm factors at this seed, drawn in its
    order: 100 reflections, then 200 triples g, h and g.h."""
    rng = random.Random(seed)
    out = [reflection(verify.random_anisotropic_vector(B23, rng), B23) for _ in range(100)]
    for _ in range(200):
        g = verify.random_isometry(B23, rng, reflections=rng.randint(1, 3))
        h = verify.random_isometry(B23, rng, reflections=rng.randint(1, 3))
        out += [g, h, compose(g, h)]
    return out


def k3_products():
    """Seeded K3 products of 1-6 reflections, one nonzero coordinate per
    block, read from their --matrix text as isometries not yet certified."""
    return [
        Isometry(*cleared(json.loads(k3_reflection_product(seed, count))), K3)
        for seed in range(4) for count in range(1, 7)
    ]


def plus_minus_identity(l):
    n = l.rank
    return [Isometry(tuple(tuple(s * int(i == j) for j in range(n)) for i in range(n)), 1, l)
            for s in (1, -1)]


def assert_matches_oracle(g):
    expected = eager_cartan_dieudonne(g)
    fresh = Isometry(g.num, g.den, g.lattice)
    assert cartan_dieudonne(g) == expected
    assert cartan_dieudonne(fresh) == expected
    norm = spinor_norm(Isometry(g.num, g.den, g.lattice))
    assert norm == factorization_spinor_norm(expected, g.lattice) == spinor_norm(g)
    return expected


@pytest.mark.parametrize("seed", [1, 2, 101])
def test_the_spinor_checks_draws_factor_as_the_oracle_does(seed):
    for g in spinor_check_draws(seed):
        assert_matches_oracle(g)


def test_k3_products_and_plus_minus_identity_factor_as_the_oracle_does():
    cases = k3_products() + plus_minus_identity(K3) + plus_minus_identity(B23)
    lengths = [len(assert_matches_oracle(g)) for g in cases]
    assert lengths[-4:] == [0, 22, 0, 5]
    assert max(lengths[:-4]) <= 2 * K3.rank


@pytest.fixture
def visits(monkeypatch):
    """How many orthogonal rays the walks visit: each reads the running map
    once through linalg.times_terms."""
    seen = [0]
    real = linalg.times_terms

    def times_terms(rows, terms):
        seen[0] += 1
        return real(rows, terms)

    monkeypatch.setattr(linalg, "times_terms", times_terms)
    return seen


def test_the_walk_stops_at_the_identity(visits):
    g = Isometry(*cleared(json.loads(k3_reflection_product(17, 4))), K3)
    assert len(cartan_dieudonne(g)) >= 4
    assert 0 < visits[0] < K3.rank


def test_minus_one_visits_every_ray(visits):
    g = Isometry(*cleared(json.loads(K3_MINUS_ONE)), K3)
    assert len(cartan_dieudonne(g)) == K3.rank
    assert visits[0] == K3.rank


def test_the_identity_visits_no_ray(visits):
    # construction's walk is the only walk, and it stops before the first ray
    identity = Isometry(tuple(tuple(int(i == j) for j in range(22)) for i in range(22)), 1, K3)
    assert visits[0] == 0
    assert cartan_dieudonne(identity) == []
    assert visits[0] == 0


def fraction_reflection(x, gram):
    """The matrix of z -> z - 2 B(z, x)/Q(x) x, in Fractions."""
    n = len(gram)
    x = [Fraction(a) for a in x]
    gx = [sum(g * a for g, a in zip(row, x)) for row in gram]
    q = sum(a * b for a, b in zip(x, gx))
    return [[Fraction(int(i == j)) - 2 * x[i] * gx[j] / q for j in range(n)] for i in range(n)]


def fraction_product(vectors, gram):
    n = len(gram)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for x in vectors:
        r = fraction_reflection(x, gram)
        out = [[sum(a * r[k][j] for k, a in enumerate(row)) for j in range(n)] for row in out]
    return tuple(map(tuple, out))


def test_product_of_reflections_equals_a_fraction_product():
    rng = random.Random(2601)
    for l in (B23, standard_lattice("bpq", 3, 4), standard_lattice("e8_neg"), K3):
        for k in range(1, 5):
            vectors = []
            for _ in range(k):
                x = verify.random_anisotropic_vector(l, rng)
                kind = rng.randrange(3)
                if kind == 0:  # not primitive
                    x = tuple(rng.choice((2, 3, -6)) * a for a in x)
                elif kind == 1:  # Fractions
                    x = tuple(Fraction(a, rng.choice((1, 3, 7))) for a in x)
                else:  # 200-bit entries
                    x = tuple(rng.randrange(-1 << 200, 1 << 200) for _ in range(l.rank))
                    assert ray(x, l)[2] != 0
                vectors.append(x)
            g = product_of_reflections(vectors, l)
            assert "reflection_rays" not in vars(g)  # made with no walk
            assert g.den > 0 and g.matrix == fraction_product(vectors, l.gram)
            assert math.gcd(g.den, *(a for row in g.num for a in row)) == 1


@pytest.mark.parametrize("at", [0, 1, 2])
def test_an_isotropic_vector_anywhere_in_the_list_is_rejected(at):
    l = standard_lattice("bpq", 1, 1)
    vectors = [(1, 0), (0, 2), (Fraction(1, 3), 2)]
    vectors.insert(at, (Fraction(1, 2), Fraction(-1, 2)))
    message = "cannot reflect along isotropic vector (Fraction(1, 2), Fraction(-1, 2))"
    with pytest.raises(IsotropicVector) as e:
        product_of_reflections(vectors, l)
    assert str(e.value) == message


def test_a_zero_denominator_does_not_preserve_the_form():
    # refused when built, so no translate, walk or spinor norm meets it
    l = standard_lattice("bpq", 1, 2)
    for num in (((0,) * 3,) * 3, plus_minus_identity(l)[0].num):
        with pytest.raises(FormNotPreserved, match="matrix does not preserve the bilinear form"):
            Isometry(num, 0, l)


@pytest.mark.parametrize("l", [B23, K3], ids=["B(2,3)", "K3"])
def test_maps_not_in_lowest_terms_factor_as_in_lowest_terms(l):
    n = l.rank
    for scale in (2, -1, -3):
        raw = tuple(tuple(scale * int(i == j) for j in range(n)) for i in range(n))
        identity = Isometry(raw, scale, l)
        assert vars(identity)["reflection_rays"] == ()
        assert cartan_dieudonne(Isometry(raw, scale, l)) == []
        assert spinor_norm(Isometry(raw, scale, l)) == SquareClass(1, 1)
    rng = random.Random(2602)
    for _ in range(4):
        g = verify.random_isometry(l, rng, reflections=rng.randint(1, 4))
        expected = cartan_dieudonne(g)
        for scale in (2, -1, -3):
            scaled = Isometry(tuple(tuple(scale * a for a in row) for row in g.num),
                              scale * g.den, l)
            assert cartan_dieudonne(scaled) == expected


def test_the_uncapped_walk_still_reports_a_missed_identity(monkeypatch):
    # a walk that misses the identity on both tries still raises
    monkeypatch.setattr(isometries, "_walk", lambda g, capped: None)
    with pytest.raises(CertificateFailed, match="did not reach the identity"):
        cartan_dieudonne(reflection((1, 0, 0, 0, 0), B23))


@pytest.mark.parametrize("rows", [
    [[1, True]], [["1", True]], [[True, "1"]], [["1/2", 1.0]], [[1.0, "1"]],
    [["1/2", "1e10000"]], [["1/0", "1/2"]], [["x", "1/0"]], [["1/2"], ["1", "2"]],
])
def test_cleared_raises_as_frac_does(rows):
    # the same error type and message, from the first bad entry in row order
    def outcome(f):
        try:
            return f(rows)
        except (TypeError, ValueError) as e:
            return type(e), str(e)

    expected = outcome(frac_cleared)
    assert isinstance(expected, tuple)
    assert outcome(linalg.cleared) == expected
