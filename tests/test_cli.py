import json
import time

import pytest

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


@pytest.mark.parametrize(
    "argv",
    [
        ["arrange", "--spec-json", "{}"],
        ["signs", "--p", "2", "--q", "2", "--v", "1/0,1"],
        ["arrange", "--p", "2", "--q", "3", "--n", "5", "--m", "1", "--t", "1/0"],
        ["spinor", "--lattice", "bpq", "--p", "1", "--q", "1",
         "--matrix", '[["1e10000000",0],[0,1]]'],
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


def test_timings_go_to_stderr_not_stdout(capsys):
    _, out, err = run_cli(capsys, "lattice", "--kind", "hyperbolic")
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in out
