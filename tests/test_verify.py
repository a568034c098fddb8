"""The acceptance checks build their seed-independent objects once per call.

check_inequality_implies_empty keeps one flat family per rotation and cuts
it with each combo's H_0; check_stabilizer_claim builds one standard flat
per signature. The oracle is the per-combo loop the check ran before, and
the counters guard that the reuse stays in place.
"""

from fractions import Fraction

from geocycle import arrangement as arr
from geocycle import verify
from geocycle.grassmann import hyperplane_new

from oracles import per_combo_inequality_detail


def grid_specs():
    for boost, m, t in verify._inequality_grid():
        yield t, arr.ArrangementSpec(2, 3, boost, m, arr.rotation_from_tangent(t), 12)


def test_inequality_check_matches_the_per_combo_oracle():
    result = verify.check_inequality_implies_empty()
    assert result.ok
    assert result.detail == per_combo_inequality_detail(verify._inequality_grid())
    assert result.detail["combos"] == 20


def test_each_rotation_has_one_flat_family_for_every_boost_and_m():
    # the reuse rests on this: F_k depends on the rotation alone
    families = {}
    for t, spec in grid_specs():
        families.setdefault(t, []).append(arr.build_family(spec)[0])
    assert len(families) == 2
    for flats in families.values():
        assert len(flats) == 10
        assert all(f == flats[0] for f in flats)


def test_build_family_starts_at_the_base_hyperplane():
    for _, spec in grid_specs():
        h0 = hyperplane_new(arr.base_hyperplane_normal(spec), spec.lattice())
        assert arr.build_family(spec)[1][0] == h0


# ---------------------------------------------------------------- tooling guard


def counting(monkeypatch, name):
    calls = []
    fn = getattr(arr, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(arr, name, counted)
    return calls


def test_inequality_check_builds_one_family_per_rotation(monkeypatch):
    calls = counting(monkeypatch, "build_family")
    assert verify.check_inequality_implies_empty().ok
    assert [spec.rotation for spec, in calls] == [
        arr.rotation_from_tangent(t) for t in (Fraction(1, 10), Fraction(1, 20))
    ]


def test_stabilizer_check_builds_one_standard_flat_per_signature(monkeypatch):
    calls = counting(monkeypatch, "standard_flat")
    result = verify.check_stabilizer_claim(verify.DEFAULT_SEED)
    assert result.ok
    assert [args[:2] for args in calls] == [(2, 3), (3, 4)]
    assert result.detail == {
        "strong_cases": 100,
        "strong_failures": 0,
        "degenerate_cases": 5,
        "degenerate_failures": 0,
    }
