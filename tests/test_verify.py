"""The acceptance checks build their seed-independent objects once per call.

check_inequality_implies_empty keeps one flat family per rotation and cuts
it with each combo's H_0; check_stabilizer_claim builds one standard flat
per signature. The oracle is the per-combo loop the check ran before, and
the counters guard that the reuse stays in place.

run_all runs the spinor check in a forked child: its results, its
exceptions and its exit codes are those of the checks run one by one, and
no child outlives it.
"""

import os
import threading
from fractions import Fraction

import pytest

from geocycle import arrangement as arr
from geocycle import verify
from geocycle.cli import main
from geocycle.errors import BudgetExceeded
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


# ------------------------------------------------------- the forked check
#
# run_all runs FORKED_CHECK in a forked child on a multi-CPU host. The
# forked fixture makes that path run whatever the host (and counts the
# forks); the inline fixture shuts it.


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


def test_a_failing_fork_runs_the_checks_inline_and_closes_its_pipe(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse_fork)
    fds = open_fds()
    assert summary(verify.run_all(2)) == summary(fn(2) for _, fn in verify.ALL_CHECKS)
    assert open_fds() == fds


def spinor_budget_exceeded(seed):
    raise BudgetExceeded("spinor check: 3 reflections past the budget")


@pytest.mark.parametrize("path", ["forked", "inline"])
def test_an_exception_in_the_spinor_check_exits_2(request, monkeypatch, capsys, path):
    forks = request.getfixturevalue(path)
    monkeypatch.setattr(verify, "check_spinor_norm", spinor_budget_exceeded)
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

    def dies(seed):
        if os.getpid() == parent:
            raise AssertionError("the spinor check ran in the parent")
        os._exit(3)

    monkeypatch.setattr(verify, "check_spinor_norm", dies)
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
