"""The acceptance checks build their seed-independent objects once per call.

check_inequality_implies_empty keeps one flat family per rotation and cuts
it with each combo's H_0; check_stabilizer_claim builds one standard flat
per signature. The oracle is the per-combo loop the check ran before, and
the counters guard that the reuse stays in place.

run_all shares the spinor check's cases with a forked child: its results,
its exceptions and its exit codes are those of the checks run one by one,
every case runs once, and no child or pipe outlives it. The cases are
drawn in the order the check drew them when it ran them in one loop.

Each check can fail: with its subject patched to a wrong answer it counts
the failures, and verify-all then exits 1. A check with a wall-clock gate
fails past it, with its detail unchanged.
"""

import dataclasses
import json
import os
import threading
import time
import types
from fractions import Fraction

import pytest

from geocycle import arrangement as arr
from geocycle import signs, verify
from geocycle.cli import main
from geocycle.errors import BudgetExceeded
from geocycle.grassmann import IntersectionVerdict, hyperplane_new
from geocycle.lattices import LatticeClass, standard_lattice
from geocycle.linalg import span

from oracles import looped_spinor_draws, per_combo_inequality_detail


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


# ------------------------------------------------------- the forked check
#
# run_all shares the spinor check's cases with a forked child on a
# multi-CPU host. The forked fixture makes that path run whatever the host
# (and counts the forks); the inline fixture shuts it.


@pytest.fixture
def forked(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return forks


def refuse_fork():
    raise OSError("fork refused")


@pytest.fixture
def inline(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refuse_fork)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/dev/fd"))


def summary(results):
    return [(r.name, r.ok, r.detail) for r in results]


@pytest.mark.parametrize("path", ["forked", "inline"])
def test_run_all_equals_the_checks_run_one_by_one(request, path):
    forks = request.getfixturevalue(path)
    seeds = (2, 7, 101, 2024, 424242)
    fds = open_fds()
    for seed in seeds:
        assert summary(verify.run_all(seed)) == summary(fn(seed) for _, fn in verify.ALL_CHECKS)
    assert len(forks or ()) == (len(seeds) if path == "forked" else 0)
    assert open_fds() == fds
    assert_no_child_left()


@pytest.fixture
def refused(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse_fork)


@pytest.mark.parametrize("path", ["forked", "inline", "refused"])
def test_run_all_never_calls_the_inline_spinor_check(request, monkeypatch, path):
    # one way to run check 5: the token pipe, with or without a child;
    # check_spinor_norm is only the reference the tests compare with
    request.getfixturevalue(path)
    calls = []
    monkeypatch.setattr(verify, "check_spinor_norm", lambda seed: calls.append(seed))
    spinor = verify.run_all(2)[4]
    assert (calls, spinor.name, spinor.ok) == ([], "spinor_norm", True)
    assert_no_child_left()


def test_a_failing_fork_runs_the_checks_inline_and_closes_its_pipe(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse_fork)
    fds = open_fds()
    assert summary(verify.run_all(2)) == summary(fn(2) for _, fn in verify.ALL_CHECKS)
    assert open_fds() == fds


def spinor_budget_exceeded(l, case):
    raise BudgetExceeded("spinor check: 3 reflections past the budget")


@pytest.mark.parametrize("path", ["forked", "inline"])
def test_an_exception_in_the_spinor_check_exits_2(request, monkeypatch, capsys, path):
    forks = request.getfixturevalue(path)
    monkeypatch.setattr(verify, "spinor_case", spinor_budget_exceeded)
    code = main(["verify-all", "--seed", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: spinor check: 3 reflections past the budget\n"
    assert len(forks or ()) == (1 if path == "forked" else 0)
    assert_no_child_left()


def test_the_child_is_waited_for_when_a_check_in_the_parent_raises(forked, monkeypatch):
    def sign_claim_raises(seed):
        raise BudgetExceeded("sign claim")

    monkeypatch.setattr(verify, "check_sign_claim", sign_claim_raises)
    with pytest.raises(BudgetExceeded, match="^sign claim$"):
        verify.run_all(2)
    assert len(forked) == 1
    assert_no_child_left()


def test_a_child_that_ends_without_a_result_is_an_error(forked, monkeypatch):
    parent = os.getpid()

    def dies(l, case):
        if os.getpid() == parent:
            return 0  # the parent takes the cases the child left
        os._exit(3)

    monkeypatch.setattr(verify, "spinor_case", dies)
    with pytest.raises(ChildProcessError, match="no result"):
        verify.run_all(2)
    assert_no_child_left()


def test_other_threads_keep_the_checks_inline(forked):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        results = verify.run_all(2)
    finally:
        stop.set()
        thread.join()
    assert [r.name for r in results] == [name for name, _ in verify.ALL_CHECKS]
    assert forked == []


# ------------------------------------------------------ the spinor cases


@pytest.mark.parametrize("seed", [1, 2, 101])
def test_the_spinor_cases_are_drawn_in_the_looped_order(seed):
    l, cases = verify.spinor_cases(seed)
    singles, pairs = looped_spinor_draws(seed)
    assert l == standard_lattice("bpq", 2, 3)
    assert cases == [(x,) for x in singles] + pairs


def numbered_cases(monkeypatch, fails=(), raises=()):
    """Hand spinor_case (index, case) pairs: index i raises ValueError
    "case i" when in raises, else adds one failure when in fails to the
    real case's count."""
    draw, evaluate = verify.spinor_cases, verify.spinor_case

    def numbered(seed):
        l, cases = draw(seed)
        return l, list(enumerate(cases))

    def faulty(l, case):
        i, case = case
        if i in raises:
            raise ValueError(f"case {i}")
        return evaluate(l, case) + (i in fails)

    monkeypatch.setattr(verify, "spinor_cases", numbered)
    monkeypatch.setattr(verify, "spinor_case", faulty)


CHUNK_EDGES = {3, 4, 99, 100, 299}


@pytest.mark.parametrize("path", ["forked", "inline"])
@pytest.mark.parametrize("fails", [set(), {0}, {299}, CHUNK_EDGES, set(range(300))],
                         ids=["none", "first", "last", "chunk_edges", "all"])
def test_each_spinor_case_counts_once_on_both_paths(request, monkeypatch, path, fails):
    forks = request.getfixturevalue(path)
    numbered_cases(monkeypatch, fails=fails)
    fds = open_fds()
    spinor = verify.run_all(2)[4]
    assert (spinor.name, spinor.ok, spinor.detail) == ("spinor_norm", not fails,
                                                       {"failures": len(fails)})
    assert len(forks or ()) == (1 if path == "forked" else 0)
    assert open_fds() == fds
    assert_no_child_left()


@pytest.mark.parametrize("path", ["forked", "inline"])
@pytest.mark.parametrize("raises", [(37, 262), (4, 5), (0, 299), (150, 151)])
def test_of_two_raising_cases_the_lower_index_is_raised(request, monkeypatch, path, raises):
    request.getfixturevalue(path)
    numbered_cases(monkeypatch, raises=set(raises))
    fds = open_fds()
    with pytest.raises(ValueError, match=f"^case {min(raises)}$"):
        verify.run_all(2)
    assert open_fds() == fds
    assert_no_child_left()


def test_both_processes_take_a_share_of_the_spinor_cases(forked, monkeypatch):
    # one failure per case the parent runs; at 1 ms a case, neither side
    # can take all 300 before the other starts claiming. The seven other
    # checks are stubbed, so the parent starts claiming at once however
    # slowly the real ones would run
    parent = os.getpid()

    def whose(l, case):
        time.sleep(0.001)
        return int(os.getpid() == parent)

    def passing(name):
        return lambda seed: verify.CheckResult(name, True, 0.0, {})

    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(
        (name, fn if name == "spinor_norm" else passing(name)) for name, fn in verify.ALL_CHECKS
    ))
    monkeypatch.setattr(verify, "spinor_case", whose)
    spinor = verify.run_all(2)[4]
    assert 0 < spinor.detail["failures"] < 300
    assert_no_child_left()


# -------------------------------------------------- each check can fail
#
# Each check's subject is patched in geocycle.verify's namespace to a wrong
# answer, so the check's failure-counting lines run: a check that always
# passed would go unnoticed.


def patch_module(monkeypatch, name, **fns):
    """Replace verify's module attribute name by a copy with these functions."""
    module = getattr(verify, name)
    monkeypatch.setattr(verify, name, types.SimpleNamespace(**{**vars(module), **fns}))


def negated_expected_pi_k_matrix(v):
    return tuple(tuple(-x for x in row) for row in signs.expected_pi_k_matrix(v.p))


def no_intersection_point(flat, hyper):
    return IntersectionVerdict("Point")


ORACLE_MISMATCH = "pruned != naive"


@pytest.mark.parametrize(
    "check,module,fns,detail",
    [
        ("sign_claim", "signs", {"pi_k_matrix": negated_expected_pi_k_matrix},
         {"cases": 525, "failures": 525}),
        ("inequality_implies_empty", "gr", {"intersect_flat_hyperplane": no_intersection_point},
         {"combos": 20, "inequality_hits": 170, "violations": 170}),
        ("stabilizer_claim", "gr", {"general_position": lambda flat, hyper, kind: False},
         {"strong_cases": 100, "strong_failures": 100,
          "degenerate_cases": 5, "degenerate_failures": 0}),
        ("stabilizer_claim", "gr", {"stabilizer_sign_patterns": lambda flat, hyper: []},
         {"strong_cases": 100, "strong_failures": 100,
          "degenerate_cases": 5, "degenerate_failures": 5}),
        ("root_enumeration", "obs", {"enumerate_roots": lambda l, bound: [(0,) * l.rank]},
         {"e8_count": 1, "failures": {
             "hyperbolic_bound_1": [(0, 0)], "b11_bound_10": "expected no roots",
             "e8_neg_bound_6": 1, "e8_neg_norms": "bad self-pairing",
             "oracle_rank2_bound3": ORACLE_MISMATCH, "oracle_rank4_bound2": ORACLE_MISMATCH,
             "oracle_rank3_bound2": ORACLE_MISMATCH,
         }}),
        ("exact_linear_algebra", "linalg", {"intersect": lambda a, b: a}, {"failures": 72}),
        ("exact_linear_algebra", "linalg", {"perp": lambda a, l: span([], ambient=l.rank)},
         {"failures": 30}),
        ("exact_linear_algebra", "linalg",
         {"gram_of": lambda rows, l: [[-x for x in row] for row in l.gram]}, {"failures": 50}),
    ],
    ids=["sign_pi_k_matrix", "inequality_intersect", "stabilizer_general_position",
         "stabilizer_sign_patterns", "roots_enumerate", "algebra_intersect", "algebra_perp",
         "algebra_gram_of"],
)
def test_a_wrong_subject_fails_its_check(monkeypatch, check, module, fns, detail):
    patch_module(monkeypatch, module, **fns)
    result = dict(verify.ALL_CHECKS)[check](verify.DEFAULT_SEED)
    assert (result.name, result.ok, result.detail) == (check, False, detail)


def test_a_wrong_classification_fails_its_check(monkeypatch):
    wrong = LatticeClass((0, 0), "odd", 1, True)
    monkeypatch.setattr(verify, "classify", lambda l: wrong)
    result = verify.check_lattice_classification()
    # the detail holds each wrong class as a dict, so verify-all can print it
    shown = dataclasses.asdict(wrong)
    expected = {"k3": shown, **{f"b{p}{q}": shown for p in range(1, 11) for q in range(1, 11)}}
    assert (result.ok, result.detail) == (False, {"failures": expected})


def test_verify_all_with_a_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "classify", lambda l: LatticeClass((0, 0), "odd", 1, True))
    code = main(["verify-all", "--seed", "2"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (code, payload["all_ok"]) == (1, False)
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["lattice_classification"]
    assert "lattice_classification: FAIL" in captured.err
    assert_no_child_left()


# ------------------------------------------------------------ the clock gates
#
# verify's clock is patched to one that advances 100 s at every read, so
# every wall-clock gate is exceeded: a total gate, arrangement_pattern's
# 30 s per case, root_enumeration's 60 s on E8 and the spinor check's 10 s.


def slow_clock():
    now = [0.0]

    def perf_counter():
        now[0] += 100.0
        return now[0]

    return types.SimpleNamespace(perf_counter=perf_counter)


# the checks that fail on the slow clock: the others have no gate
GATED = {"sign_claim", "arrangement_pattern", "spinor_norm", "root_enumeration",
         "lattice_classification", "exact_linear_algebra"}


@pytest.mark.parametrize("name", [name for name, _ in verify.ALL_CHECKS if name != "spinor_norm"])
def test_a_check_past_its_gate_fails_with_its_detail_unchanged(monkeypatch, name):
    check = dict(verify.ALL_CHECKS)[name]
    on_time = check(verify.DEFAULT_SEED)
    monkeypatch.setattr(verify, "time", slow_clock())
    late = check(verify.DEFAULT_SEED)
    assert on_time.ok
    assert (late.name, late.ok, late.detail) == (name, name not in GATED, on_time.detail)
    assert late.elapsed >= 100.0


@pytest.mark.parametrize("path", ["forked", "inline"])
def test_run_all_past_the_gates_fails_the_gated_checks(request, monkeypatch, path):
    forks = request.getfixturevalue(path)
    monkeypatch.setattr(verify, "time", slow_clock())
    results = verify.run_all(2)
    assert [(r.name, r.ok) for r in results] == [
        (name, name not in GATED) for name, _ in verify.ALL_CHECKS]
    assert results[4].detail == {"failures": 0}
    assert len(forks or ()) == (1 if path == "forked" else 0)
    assert_no_child_left()


@pytest.mark.parametrize("cpus,expected", [(1, False), (2, True), (None, False)])
def test_can_fork_counts_cpus_where_there_is_no_affinity(monkeypatch, cpus, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert verify._can_fork() is (expected and hasattr(os, "fork"))
