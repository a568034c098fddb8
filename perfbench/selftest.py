"""Self-tests of the benchmark's checks.

    python3 perfbench/selftest.py

Each check must accept the program's real output and reject one corrupted
in a single place; the closed-form verdict table must agree with the
program; the metric names must be those BENCHMARK.json declares.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import spans
import workloads

CLI = run.import_geocycle()


def program(*argv: str, expect=(0,)) -> str:
    code, text, _ = run.call(CLI, argv)
    if code not in expect:
        raise AssertionError(f"geocycle {' '.join(argv)} exited with {code}")
    return text


def edited(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


class ArrangeCheck(unittest.TestCase):
    def test_closed_form_tags_agree_with_the_program(self):
        for (p, q), n in itertools.product(((2, 3), (3, 3), (3, 4)), range(1, 13)):
            with self.subTest(p=p, q=q, n=n):
                checks.check_arrange(
                    program("arrange", "--p", str(p), "--q", str(q), "--n", str(n), "--auto-params"),
                    p, q, n)

    def test_closed_form_tags_agree_off_the_searched_parameters(self):
        # families whose table is not triangular (the claim fails, exit 1)
        for (p, q), m, t in itertools.product(((2, 3), (3, 4)), (0, 1, 2), ("1/2", "1/3")):
            with self.subTest(p=p, q=q, m=m, t=t):
                doc = json.loads(program("arrange", "--p", str(p), "--q", str(q), "--n", "6",
                                         "--m", str(m), "--t", t, expect=(0, 1)))
                tags = checks.arrangement_closed_form(
                    p, q, 6, m, (Fraction(5, 4), Fraction(3, 4)),
                    tuple(Fraction(x) for x in doc["rotation"]))[0]
                self.assertEqual(doc["matrix"], tags)

    def test_rejects_one_flipped_tag(self):
        text = program("arrange", "--p", "3", "--q", "4", "--n", "5", "--auto-params")

        def flip(doc):
            doc["matrix"][1][4] = "Point"

        with self.assertRaises(checks.CheckFailed):
            checks.check_arrange(edited(text, flip), 3, 4, 5)

    def test_rejects_a_moved_diagonal_point(self):
        text = program("arrange", "--p", "3", "--q", "4", "--n", "5", "--auto-params")

        def move(doc):
            doc["diagonal_points"][2]["basis"][1][3] = "1/7"

        with self.assertRaises(checks.CheckFailed):
            checks.check_arrange(edited(text, move), 3, 4, 5)

    def test_rejects_a_wrong_boost_power(self):
        text = program("arrange", "--p", "3", "--q", "4", "--n", "5", "--auto-params")
        with self.assertRaises(checks.CheckFailed):
            checks.check_arrange(edited(text, lambda doc: doc.update(m=doc["m"] + 1)), 3, 4, 5)


class SpinorCheck(unittest.TestCase):
    def test_accepts_the_program_and_rejects_a_wrong_class(self):
        ops = workloads.WORKLOADS["spinor_k3"].rounds(7)(0)
        for op in ops:
            with self.subTest(op=op.label):
                text = program(*op.argvs[0])
                op.check([text])
                for change in (lambda d: d.update({"class": d["class"] * 3}),
                               lambda d: d.update({"class": -d["class"], "real_sign": -d["real_sign"]}),
                               lambda d: d.update(reflections=d["reflections"] + 1)):
                    with self.assertRaises(checks.CheckFailed):
                        op.check([edited(text, change)])

    def test_minus_one_has_the_class_of_the_k3_determinant(self):
        self.assertEqual(checks.det(checks.k3_gram()), -1)

    def test_reflection_product_preserves_the_form(self):
        gram = checks.k3_gram()
        mat = workloads.reflection_product(gram, [[1, 0, 2] + [0] * 18 + [1], [0] * 6 + [1, 1] + [0] * 14])
        cols = list(zip(*mat))
        for i, j in itertools.product(range(22), repeat=2):
            self.assertEqual(checks.form(gram, cols[i], cols[j]), gram[i][j])


class RootsCheck(unittest.TestCase):
    def test_accepts_the_program_and_rejects_one_dropped_root(self):
        for argv, kind in workloads.ROOTS_CALLS:
            with self.subTest(kind=kind):
                text = program(*argv)
                workloads._check_roots(kind, text)
                with self.assertRaises(checks.CheckFailed):
                    workloads._check_roots(kind, json.dumps(json.loads(text)[1:]))

    def test_rejects_a_vector_of_the_wrong_norm(self):
        text = program("roots", "--lattice", "e8_neg", "--bound", "6")
        roots = json.loads(text)
        roots[0] = [0] * 7 + [-6]
        with self.assertRaises(checks.CheckFailed):
            workloads._check_roots("e8_neg", json.dumps(sorted(roots)))

    def test_convolved_count_matches_exhaustion(self):
        for p, q, bound in ((1, 1, 3), (2, 2, 2), (1, 3, 2)):
            brute = sum(
                1 for v in itertools.product(range(-bound, bound + 1), repeat=p + q)
                if sum(x * x for x in v[:p]) - sum(x * x for x in v[p:]) == -2)
            self.assertEqual(checks.bpq_root_count(p, q, bound), brute)


class VerifyAllCheck(unittest.TestCase):
    def test_accepts_the_program_and_rejects_wrong_sizes(self):
        text = program("verify-all", "--seed", "5")
        checks.check_verify_all(text)
        for change in (lambda d: d.update(all_ok=False),
                       lambda d: d["checks"][0]["detail"].update(cases=524),
                       lambda d: d["checks"][3]["detail"].update(degenerate_cases=4)):
            with self.assertRaises(checks.CheckFailed):
                checks.check_verify_all(edited(text, change))
        self.assertEqual(checks.without_timings(text), checks.without_timings(
            edited(text, lambda d: d["checks"][0].update(elapsed_ms=1))))


class MetricNames(unittest.TestCase):
    def test_runs_print_the_metrics_benchmark_json_declares(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", "roots", "--seed", "1",
                 "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=run.ROOT)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(result["failed"], 0)
            self.assertTrue(result["correct"])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in declared[key]})
        self.assertEqual([m[0] for m in spans.METRICS], [m["name"] for m in declared["per_layer"]])


if __name__ == "__main__":
    unittest.main()
