import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from geocycle import cli, verify
from geocycle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_classify_k3(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--kind", "k3", "--classify")
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [3, 19]
    assert payload["parity"] == "even"
    assert payload["unimodular"] is True


def test_lattice_gram_output(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--kind", "hyperbolic")
    assert code == 0
    assert json.loads(out)["gram"] == [[0, 1], [1, 0]]


def test_lattice_unknown_kind_exits_2(capsys):
    code, _, err = run_cli(capsys, "lattice", "--kind", "leech")
    assert code == 2


def test_signs_example(capsys):
    code, out, _ = run_cli(capsys, "signs", "--p", "3", "--q", "3", "--v", "1/3,2/3,2/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    assert payload["det"] == 1
    assert payload["claim_holds"] is True


def test_signs_pads_vector_to_q(capsys):
    code, out, _ = run_cli(capsys, "signs", "--p", "2", "--q", "4", "--v", "3/5,4/5")
    assert code == 0
    assert json.loads(out)["det"] == -1


def test_signs_inadmissible_exits_2(capsys):
    code, _, err = run_cli(capsys, "signs", "--p", "2", "--q", "2", "--v", "1,0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "0", "--q", "0", "--v", "1"], "need 1 <= p <= q, got p=0, q=0"),
        (["--p", "2", "--q", "1", "--v", "1,0"], "need 1 <= p <= q, got p=2, q=1"),
    ],
)
def test_signs_checks_the_signature_of_the_argv(capsys, argv, message):
    # p and q are the argv's, not len(--v), and p > q is refused before --v
    # is read
    code, out, err = run_cli(capsys, "signs", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# sha256 of stdout for `signs` and for `verify-all` at two seeds, recorded
# before admissible vectors were kept as integers (X, D): the sign layer
# must print the same bytes. argparse reads a leading "-" as an option, so
# a negative --v is spelled --v=.
GOLDEN_SIGNS = {
    "signs --p 1 --q 1 --v 1":
        "596f60608e828335e4100ae257015e68f354d5bf737e801c0de3348c167cd6e9",
    "signs --p 2 --q 4 --v 3/5,4/5":
        "d51f73728f0f186e5e212b1e055c5718ef203b2ddb87bb8d35c23540d59a9563",
    "signs --p 3 --q 3 --v 1/3,2/3,2/3":
        "6508a6b1aa3c19465f5f2a658522e7dcd2d4d6998689972ae30fce05d48cedf3",
    "signs --p 2 --q 2 --v=-3/5,-4/5":
        "d51f73728f0f186e5e212b1e055c5718ef203b2ddb87bb8d35c23540d59a9563",
    "signs --p 2 --q 2 --v 0.6,0.8":
        "d51f73728f0f186e5e212b1e055c5718ef203b2ddb87bb8d35c23540d59a9563",
    "verify-all --seed 101":
        "a262bde6d03dc52bcab45c80d99f8737f979fd1cf0fed22a0f9dae8b836489ce",
    "verify-all --seed 424242":
        "a262bde6d03dc52bcab45c80d99f8737f979fd1cf0fed22a0f9dae8b836489ce",
    # recorded before the checks built their flats once per call; the
    # spinor check at this seed meets a product with a 67-bit factor Q
    "verify-all --seed 2":
        "a262bde6d03dc52bcab45c80d99f8737f979fd1cf0fed22a0f9dae8b836489ce",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_SIGNS))
def test_sign_layer_prints_the_recorded_bytes(capsys, args):
    code, out, _ = run_cli(capsys, *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SIGNS[args]


def test_arrange_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--csv", "arrange", "--p", "2", "--q", "3", "--n", "5", "--auto-params"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    grid = [line.split(",") for line in lines]
    for i in range(6):
        assert grid[i][i] == "P"
        for j in range(i + 1, 6):
            assert grid[i][j] == "E"


def test_arrange_builds_its_csv_only_under_the_flag(capsys, monkeypatch):
    from geocycle.arrangement import IntersectionMatrix

    built = []
    real = IntersectionMatrix.to_csv
    monkeypatch.setattr(IntersectionMatrix, "to_csv", lambda self: built.append(1) or real(self))
    args = ("arrange", "--p", "2", "--q", "3", "--n", "5", "--auto-params")
    plain = run_cli(capsys, *args)
    assert built == []
    flagged = run_cli(capsys, *args, "--csv")
    assert built == [1] and flagged[1].count("\n") == 6
    assert run_cli(capsys, *args)[:2] == plain[:2]


def test_arrange_json_and_determinism(capsys):
    args = ("arrange", "--p", "2", "--q", "3", "--n", "3", "--auto-params")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical stdout for identical argv
    payload = json.loads(out1)
    assert payload["m"] == 3
    assert payload["t"] == "1/10"
    assert payload["lower_triangular"] is True


def test_arrange_explicit_params(capsys):
    code, out, _ = run_cli(
        capsys, "arrange", "--p", "2", "--q", "2", "--n", "2",
        "--m", "3", "--t", "1/10",
    )
    assert code == 0
    assert json.loads(out)["lower_triangular"] is True


def test_arrange_missing_params_exits_2(capsys):
    code, _, err = run_cli(capsys, "arrange", "--p", "2", "--q", "3", "--n", "2")
    assert code == 2


def test_arrange_emit_plot_data(tmp_path, capsys):
    path = tmp_path / "plot.csv"
    code, _, _ = run_cli(
        capsys, "arrange", "--p", "2", "--q", "3", "--n", "4", "--auto-params",
        "--emit-plot-data", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,tangent,lower,upper"
    assert len(lines) == 5
    assert lines[1].startswith("1,-20/99,")


def test_roots_hyperbolic(capsys):
    code, out, err = run_cli(capsys, "roots", "--lattice", "hyperbolic", "--bound", "1")
    assert code == 0
    assert json.loads(out) == [[-1, 1], [1, -1]]
    assert "count=2" in err


def test_roots_k3_block(capsys):
    code, out, err = run_cli(
        capsys, "roots", "--lattice", "k3", "--bound", "6", "--block", "e8:1"
    )
    assert code == 0
    roots = json.loads(out)
    assert len(roots) == 240
    assert all(len(r) == 22 for r in roots)
    # support confined to the first negated-E8 block
    assert all(all(x == 0 for x in r[:6] + r[14:]) for r in roots)
    assert "count=240" in err


def test_roots_over_budget_exits_2_quickly(capsys):
    # K3 at bound 1 has far more roots than the node budget allows
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "roots", "--lattice", "k3", "--bound", "1")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert "error: root enumeration needs more than" in err
    assert "stopped after visiting" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "p,q,bound", [(1, 1, "99999999999999999999"), (1, 2, str(2**62)), (1, 1, "9999999999")]
)
def test_a_bound_past_sys_maxsize_exits_2_on_the_node_budget(capsys, p, q, bound):
    # a coordinate range longer than sys.maxsize is charged by its ends, as
    # len() of it overflows
    code, out, err = run_cli(
        capsys, "roots", "--lattice", "bpq", "--p", str(p), "--q", str(q), "--bound", bound
    )
    assert (code, out) == (2, "")
    assert "error: root enumeration needs more than 500000 nodes" in err


def test_roots_block_requires_k3(capsys):
    code, _, err = run_cli(
        capsys, "roots", "--lattice", "hyperbolic", "--bound", "1", "--block", "e8:1"
    )
    assert code == 2


def test_spinor_boost(capsys):
    code, out, _ = run_cli(
        capsys, "spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
        "--matrix", '[["5/4","3/4"],["3/4","5/4"]]',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == 2
    assert payload["real_sign"] == 1
    assert out == '{"class": 2, "real_sign": 1, "reflections": 2}\n'


def test_spinor_factors_once(capsys, monkeypatch):
    import geocycle.cli as cli
    import geocycle.isometries as isometries

    calls = []
    original = isometries.cartan_dieudonne

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(isometries, "cartan_dieudonne", counting)
    monkeypatch.setattr(cli, "cartan_dieudonne", counting)
    code, out, _ = run_cli(
        capsys, "spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
        "--matrix", '[["5/4","3/4"],["3/4","5/4"]]',
    )
    assert code == 0
    assert len(calls) == 1
    assert out == '{"class": 2, "real_sign": 1, "reflections": 2}\n'


def test_matrix_is_coerced_once(capsys, monkeypatch):
    # --matrix keeps its JSON shape checks in the CLI; isometry_from_matrix
    # clears the rows of denominators, once; the later calls of
    # linalg.cleared clear the reflection vectors
    import geocycle.linalg as linalg

    calls = []
    original = linalg.cleared
    monkeypatch.setattr(linalg, "cleared", lambda rows: calls.append(rows) or original(rows))
    for command, rows in ((["spinor"], [["5/4", "3/4"], ["3/4", "5/4"]]),
                          (["congruence", "--modulus", "4"], [[1, 0], ["0", 1]])):
        calls.clear()
        code, _, _ = run_cli(capsys, *command, "--lattice", "bpq", "--p", "1", "--q", "1",
                             "--matrix", json.dumps(rows))
        assert code == 0
        assert calls[0] == rows and rows not in calls[1:]


# The README boost and -1 on B(1,1), each with spellings that the plain
# "n" / "n/d" match leaves to frac: unreduced, spaced, decimal, exponent.
RESPELLED_MATRICES = [
    ([["5/4", "3/4"], ["3/4", "5/4"]],
     [[["10/8", "6/8"], ["9/12", "15/12"]],
      [[" 5/4", "3/4 "], ["\t3/4", "5/4\n"]],
      [["1.25", "0.75"], ["0.75", "1.25"]],
      [["125e-2", "75E-2"], ["0.075e1", "1.25e0"]]]),
    ([["-1", "0"], ["0", "-1"]],
     [[["-2/2", "0/7"], [" 0", "-3/3"]],
      [["-1.0", "0.0"], ["-0.0", "-1.00"]],
      [["-1e0", "0e5"], ["0E-3", "-10e-1"]]]),
]


@pytest.mark.parametrize("canonical, spellings", RESPELLED_MATRICES)
@pytest.mark.parametrize("command", [["spinor"], ["congruence", "--modulus", "2"]])
def test_respelled_matrix_prints_the_same_bytes(capsys, command, canonical, spellings):
    def run(rows):
        code, out, _ = run_cli(capsys, *command, "--lattice", "bpq", "--p", "1", "--q", "1",
                               "--matrix", json.dumps(rows))
        return code, out

    expected = run(canonical)
    for rows in spellings:
        assert run(rows) == expected, rows


@pytest.mark.parametrize(
    "argv",
    [
        ["arrange", "--p", "3", "--q", "4", "--n", "2", "--m", "1000000000", "--t", "1/10"],
        ["arrange", "--spec-json",
         '{"p": 2, "q": 3, "n": 2, "m": 1000000000, "boost": ["5/4","3/4"], "t": "1/10"}'],
        ["arrange", "--p", "3", "--q", "4", "--n", "1000000000", "--auto-params"],
        ["arrange", "--p", "33", "--q", "33", "--n", "1", "--auto-params"],
    ],
)
def test_arrange_past_its_caps_exits_2_at_once(capsys, monkeypatch, argv):
    # the caps are checked before the parameter search and before the
    # boost power 2^m is formed
    monkeypatch.setattr(cli.arr, "search_parameters", None)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "error: arrange takes" in err


def _decimal_tangent(digits):
    return "1/1" + "0" * digits


_HUGE_S = 10**300  # the boost ((s^2 + 1)/2s, (s^2 - 1)/2s)


@pytest.mark.parametrize(
    "argv",
    [
        ["arrange", "--p", "2", "--q", "3", "--m", "1", "--n", "32", "--t", _decimal_tangent(40)],
        ["arrange", "--p", "2", "--q", "3", "--m", "1", "--n", "64", "--t", _decimal_tangent(40)],
        ["arrange", "--p", "2", "--q", "3", "--m", "1", "--n", "64", "--t", _decimal_tangent(200)],
        ["arrange", "--spec-json", json.dumps({
            "p": 2, "q": 3, "n": 256, "m": 64, "t": "1/10",
            "boost": [f"{_HUGE_S**2 + 1}/{2 * _HUGE_S}", f"{_HUGE_S**2 - 1}/{2 * _HUGE_S}"],
        })],
        ["arrange", "--p", "2", "--q", "3", "--n", "4", "--auto-params",
         "--boost-a", f"{_HUGE_S**6 + 1}/{2 * _HUGE_S**3}",
         "--boost-b", f"{_HUGE_S**6 - 1}/{2 * _HUGE_S**3}"],
    ],
    ids=["n32_t1e-40", "n64_t1e-40", "n64_t1e-200", "spec_boost_1e300", "auto_boost_1e900"],
)
def test_arrange_past_its_entry_bit_budget_exits_2_at_once(capsys, monkeypatch, argv):
    # n * bits(rotation denominator) + m * bits(boost) is checked before the
    # parameter search and before any family is built; unchecked, these
    # argvs ran for seconds to minutes, and then a Point entry past 4300
    # digits could not be printed
    monkeypatch.setattr(cli.arr, "search_parameters", None)
    monkeypatch.setattr(cli.arr, "build_family", None)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: arrange takes n*bits(rotation denominator) + m*bits(boost) <= ")


def test_arrange_just_under_its_entry_bit_budget_prints_its_whole_table(capsys):
    # 16 * 266 + 1 * 3 bits: the table is not lower triangular (exit 1), and
    # its largest printed Point entry has about twice the estimate's bits
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "arrange", "--p", "2", "--q", "3", "--m", "1", "--n", "16",
                           "--t", _decimal_tangent(40))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    payload = json.loads(out)
    assert len(payload["matrix"]) == 17 and not payload["lower_triangular"]
    assert 2000 < max(map(len, re.findall(r"\d+", out))) < 4300


@pytest.mark.parametrize("command", ["lattice", "roots", "spinor", "congruence", "signs"])
@pytest.mark.parametrize("p,q", [(10**6, 1), (1, 10**6)])
def test_a_rank_past_the_cap_exits_2_at_once(capsys, command, p, q):
    # the rank is checked before the Gram matrix is built or --v is padded
    argv = {
        "lattice": ["lattice", "--kind", "bpq"],
        "roots": ["roots", "--lattice", "bpq", "--bound", "1"],
        "spinor": ["spinor", "--lattice", "bpq", "--matrix", "[[1]]"],
        "congruence": ["congruence", "--lattice", "bpq", "--matrix", "[[1]]", "--modulus", "2"],
        "signs": ["signs", "--v", "1" + ",0" * (min(p, q) - 1)],
    }[command]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--p", str(p), "--q", str(q))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "error: ranks p + q <= 64 are supported" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["arrange", "--spec-json", "{}"],
        ["signs", "--p", "2", "--q", "2", "--v", "1/0,1"],
        ["arrange", "--p", "2", "--q", "3", "--n", "5", "--m", "1", "--t", "1/0"],
        ["spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
         "--matrix", '[["1e10000000",0],[0,1]]'],
        ["arrange", "--spec-json",
         '{"p": 2.9, "q": 3.5, "n": 2, "m": 3, "boost": ["5/4","3/4"], "t": "1/10"}'],
        ["arrange", "--spec-json",
         '{"p": 2, "q": 3, "n": 2, "m": true, "boost": ["5/4","3/4"], "t": "1/10"}'],
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_spec_json_names_missing_keys(capsys):
    code, _, err = run_cli(capsys, "arrange", "--spec-json", '{"p": 2, "q": 3, "n": 2}')
    assert code == 2
    assert "m, boost, rotation or t" in err


def test_spinor_of_a_reflection_with_a_large_prime_norm(capsys):
    # the reflection along ((p+1)/2, (p-1)/2) in B(1,1) has Q = p, and the
    # numerator times the denominator of its factor's norm has 130 bits
    from geocycle.isometries import reflection
    from geocycle.lattices import standard_lattice

    p = 10000000000037
    m = reflection(((p + 1) // 2, (p - 1) // 2), standard_lattice("bpq", 1, 1)).matrix
    code, out, _ = run_cli(
        capsys, "spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
        "--matrix", json.dumps([[str(x) for x in row] for row in m]),
    )
    assert code == 0
    assert json.loads(out) == {"class": 10000000000037, "real_sign": 1, "reflections": 1}


def test_spinor_with_three_large_primes_in_its_norm_exits_2(capsys):
    # Q = N, a product of three primes near 10^9: its square class needs a
    # factorization past the trial-division budget, so the command refuses
    from geocycle.isometries import reflection
    from geocycle.lattices import standard_lattice

    n = 1000000007 * 1000000009 * 998244353
    m = reflection(((n + 1) // 2, (n - 1) // 2), standard_lattice("bpq", 1, 1)).matrix
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
        "--matrix", json.dumps([[str(x) for x in row] for row in m]),
    )
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "matrix", ["[[true,0],[0,1]]", '["10","01"]', '{"10": 0, "01": 1}', '[{"1": 0}, {"0": 1}]']
)
def test_spinor_rejects_booleans_strings_and_objects(capsys, matrix):
    # each of these used to pass for the identity
    code, out, err = run_cli(
        capsys, "spinor", "--lattice", "bpq", "--p", "1", "--q", "1", "--matrix", matrix
    )
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_spinor_rejects_non_isometry(capsys):
    code, _, err = run_cli(
        capsys, "spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
        "--matrix", "[[2,0],[0,1]]",
    )
    assert code == 2


def test_congruence_example(capsys):
    matrix = "[[-1,0,0,0],[0,-1,0,0],[0,0,1,0],[0,0,0,1]]"
    code, out, _ = run_cli(
        capsys, "congruence", "--lattice", "bpq", "--p", "2", "--q", "2",
        "--matrix", matrix, "--modulus", "2",
    )
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run_cli(
        capsys, "congruence", "--lattice", "bpq", "--p", "2", "--q", "2",
        "--matrix", matrix, "--modulus", "4",
    )
    assert code == 0 and json.loads(out)["member"] is False


def test_congruence_non_integral_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "congruence", "--lattice", "bpq", "--p", "1", "--q", "1",
        "--matrix", '[["5/4","3/4"],["3/4","5/4"]]', "--modulus", "4",
    )
    assert code == 2


def json_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from json_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from json_keys(value)


def test_verify_all(capsys):
    code, out, err = run_cli(capsys, "verify-all")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert len(payload["checks"]) == 8
    assert not [key for key in json_keys(payload) if key.endswith("elapsed_ms")]
    for line in err.strip().split("\n"):
        if ":" in line and "elapsed" not in line:
            assert "PASS" in line


def test_verify_all_writes_its_bytes_on_fd_1_once():
    # capsys sees sys.stdout only; a forked check that wrote to fd 1 would
    # show only in a real process's stdout, unbuffered so that a child's
    # write is not lost with its buffer
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "geocycle.cli", "verify-all", "--seed", "101"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SIGNS["verify-all --seed 101"]
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 9
    for (name, _), line in zip(verify.ALL_CHECKS, lines):
        assert re.fullmatch(rf"{name}: PASS \(\d+ ms\)", line), line
    assert re.fullmatch(r"elapsed_ms=\d+", lines[8])


def test_timings_go_to_stderr_not_stdout(capsys):
    _, out, err = run_cli(capsys, "lattice", "--kind", "hyperbolic")
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in out


PARSE_SEQUENCE = [
    ["--csv", "arrange", "--p", "2", "--q", "3", "--n", "3", "--m", "3", "--t", "1/10"],
    ["arrange", "--p", "2", "--q", "3", "--n", "3", "--m", "3", "--t", "1/10"],
    ["arrange", "--p", "2", "--q", "3", "--n", "3", "--m", "3", "--t", "1/10", "--csv"],
    ["arrange", "--p", "2", "--q", "3", "--n", "2", "--auto-params"],
    ["--seed", "5", "verify-all"],
    ["verify-all", "--seed", "6"],
    ["verify-all"],
    ["--seed", "5", "verify-all", "--seed", "8", "--csv"],
    ["lattice", "--kind", "bpq", "--p", "1", "--q", "2", "--classify"],
    ["lattice", "--kind", "hyperbolic", "--json"],
    ["lattice", "--kind", "bpq"],
    ["roots", "--lattice", "hyperbolic", "--bound", "2"],
    ["arrange", "--p", "x"],
    ["nope"],
    [],
    ["--seed", "x", "lattice", "--kind", "hyperbolic"],
    ["lattice", "--help"],
    ["signs", "--p", "2", "--q", "3", "--v", "3/5,4/5"],
    ["verify-all"],
    ["lattice", "--kind", "hyperbolic"],
]


def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # the parser is built once per process: every call in a mixed sequence
    # gives the stdout and exit code of the same call on a fresh parser
    monkeypatch.setattr(
        verify, "run_all", lambda seed: [verify.CheckResult(f"seed {seed}", True, 0.0, {})]
    )
    assert cli.build_parser() is cli.build_parser()
    shared = [run_cli(capsys, *argv)[:2] for argv in PARSE_SEQUENCE]
    fresh = []
    for argv in PARSE_SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert shared == fresh
    codes = [code for code, _ in shared]
    assert codes.count(2) == 5 and codes.count(0) == len(codes) - 5
    assert [json.loads(out)["checks"][0]["name"] for _, out in shared[4:8]] == [
        "seed 5", "seed 6", f"seed {verify.DEFAULT_SEED}", "seed 8"
    ]


# sha256 of stdout for the benchmark's four `arrange` argvs and the (3,19)
# family at n = 64, recorded before the verdict table read the nonzero terms
# of the Gram matrix, the isometry and the block rows: a speed-up must print
# the same bytes.
GOLDEN_ARRANGE = {
    "--p 3 --q 4 --n 5": "a066c22263769282635880be7458160b15c090ab6db8b1828774f467d0eae4c8",
    "--p 3 --q 4 --n 12": "485bab51b6ccff649fc7d2cffad1800bb64a98da5e6e1ba352f285a6338e91fa",
    "--p 3 --q 4 --n 24": "0282ad50da676fb27bfb73e8c420d72896a464da068efb2da1ce9043d6302e86",
    "--p 3 --q 4 --n 32": "a95e651042f8293da370722bfa0b0a930899e01574ac106e8121ca776c361d37",
    "--p 3 --q 19 --n 64": "12ff1719246bd2e36a492f75094a9293552138c3f3befabf461784d117f7ccbb",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_ARRANGE))
def test_arrange_stdout_is_byte_identical_to_the_recorded_hash(capsys, args):
    code, out, _ = run_cli(capsys, "arrange", *args.split(), "--auto-params")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ARRANGE[args]


# sha256 of stdout at paper scale, n = 128, recorded before the verdicts
# were read as signs of isotropic-line pairings: about 1.4 s together.
GOLDEN_ARRANGE_PAPER_SCALE = {
    "--p 3 --q 4 --n 128": "cc05907c37369dcc38ed53deed24a2d2b16d130390ed60dcb039475ef61882b4",
    "--p 8 --q 8 --n 128": "93752de8dac8a5cc3ec9de4b4cb92aa1eca2a5caa37cd411b508d703d01c2f1a",
    "--p 3 --q 19 --n 128": "16fb6e52c9676e7a47d028a7f6f139cc4d9b6e6d537bbbe3e1be937bac2d6c23",
}


# sha256 of stdout and the exit code at high rank and at a tangent the
# search never picks, recorded before a flat's translate carried its
# certificate through the isometry
GOLDEN_ARRANGE_HIGH_RANK = {
    ("--p", "32", "--q", "32", "--n", "32", "--auto-params"): (
        0, "54f2cb224b2d709e07ecda5ac68e65cf7d9197ed85752650ee1fae4361c70a95"),
    ("--spec-json", '{"p": 3, "q": 5, "n": 8, "m": 2, "boost": ["5/4", "3/4"], "t": "3/7"}'): (
        1, "ce67f3689efbe0fecf8530e14891caa9a80ced33a863136e699f926668b3df7d"),
}


@pytest.mark.parametrize("args", sorted(GOLDEN_ARRANGE_HIGH_RANK))
def test_high_rank_and_unsearched_arrange_stdout_is_byte_identical(capsys, args):
    code, out, _ = run_cli(capsys, "arrange", *args)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_ARRANGE_HIGH_RANK[args]


@pytest.mark.parametrize("args", sorted(GOLDEN_ARRANGE_PAPER_SCALE))
def test_paper_scale_arrange_stdout_is_byte_identical_to_the_recorded_hash(capsys, args):
    code, out, _ = run_cli(capsys, "arrange", *args.split(), "--auto-params")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ARRANGE_PAPER_SCALE[args]


# sha256 of stdout for the benchmark's three `roots` argvs and B(3,5) at
# bound 3 (202,880 roots), recorded before every definite block went through
# the one triangular search: the enumerator must print the same bytes.
GOLDEN_ROOTS = {
    "--lattice e8_neg --bound 6": "4bfc021485c1a8264cff62cf5e9e8ca15f2f1d14185211103cf15e3ce7b8e363",
    "--lattice k3 --bound 6 --block e8:1": "0627c56af502416cf171fb7b9a721536c815a40cace38379f2250c9f71414659",
    "--lattice bpq --p 2 --q 4 --bound 3": "f4fcefd5f708a1165bfa2c5abd1e506179d089c90578a95004a39291d66bcb09",
    "--lattice bpq --p 3 --q 5 --bound 3": "0fd9cbe88437ef4a8c204cc207ac80abc4aaecf7c88b86df122751136737e016",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_ROOTS))
def test_roots_stdout_is_byte_identical_to_the_recorded_hash(capsys, args):
    code, out, _ = run_cli(capsys, "roots", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ROOTS[args]


def k3_reflection_product(seed, count):
    """A seeded product of `count` reflections of K3, as --matrix text: each
    vector has one coordinate in {-1, 1} in each hyperbolic plane and one in
    {-2, -1, 1, 2} in each -E8 block, and each reflection is applied as the
    Fraction rank-one update z -> z - 2 B(z, w)/Q(w) w."""
    from fractions import Fraction

    from geocycle.lattices import standard_lattice

    gram = standard_lattice("k3").gram
    rng = random.Random(seed)
    n = len(gram)
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(count):
        w = [0] * n
        for lo, hi in ((0, 2), (2, 4), (4, 6), (6, 14), (14, 22)):
            w[rng.randrange(lo, hi)] = rng.choice((-2, -1, 1, 2) if hi - lo == 8 else (-1, 1))
        gw = [sum(a * b for a, b in zip(row, w)) for row in gram]
        scale = Fraction(-2, sum(a * b for a, b in zip(w, gw)))
        c = [sum(gw[i] * mat[i][j] for i in range(n)) for j in range(n)]
        mat = [[x + scale * wi * cj for x, cj in zip(row, c)] for wi, row in zip(w, mat)]
    return json.dumps([[str(x) for x in row] for row in mat])


K3_MINUS_ONE = json.dumps([[-int(i == j) for j in range(22)] for i in range(22)])

# sha256 of stdout for the commands that read a lattice's congruence: the
# determinant, the signature and the Cartan-Dieudonne walk, recorded before
# the three read one cached congruence.
GOLDEN_CONGRUENCE = {
    "spinor --lattice bpq --p 1 --q 1 --matrix BOOST":
        "2ac19750bea796eb0b226c620c2ebc7ea3a9673250f4685532f6ce9912d72194",
    "spinor --lattice k3 --matrix K3_MINUS_ONE":
        "310553406382e727966861ec025f14ebd030bf128e84edf9cc0995c5bab2e938",
    "spinor --lattice k3 --matrix K3_FOUR_REFLECTIONS":
        "4294d5247c503543f1cc46b2156dcd22620812a9ce31829f967d80815e4d634b",
    "lattice --kind k3 --classify":
        "4126d99972c77af50bde70728ca9025f60ac3f75941a80eaf32dfebeeb3241a8",
    "lattice --kind bpq --p 3 --q 19 --classify":
        "f0fff25b72ff790abe74e141d6a45bdae024d18a38709d90ae40d02ad2ae004c",
    "verify-all --seed 101":
        "a262bde6d03dc52bcab45c80d99f8737f979fd1cf0fed22a0f9dae8b836489ce",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_CONGRUENCE))
def test_congruence_readers_print_the_recorded_bytes(capsys, args):
    matrices = {
        "BOOST": '[["5/4","3/4"],["3/4","5/4"]]',
        "K3_MINUS_ONE": K3_MINUS_ONE,
        "K3_FOUR_REFLECTIONS": k3_reflection_product(17, 4),
    }
    code, out, _ = run_cli(capsys, *(matrices.get(x, x) for x in args.split()))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CONGRUENCE[args]
