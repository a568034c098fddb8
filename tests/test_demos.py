"""The demos run and print the same stdout every time.

Each demo runs twice in a fresh interpreter with the package imported from
this checkout's `src`; it must exit 0 both times with byte-identical stdout,
whose sha256 is the one recorded below. Wall times belong on stderr.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: a change to what a demo prints is recorded here
GOLDEN = {
    "01_lattices_and_classification.py": "344a1b1133d0ba0848cca7a191ca73d45ae0d743036e8b2dbcd024181be7a019",
    "02_exact_subspaces.py": "4765790dbec96ce132901a0ee4b925e4a0420cca8f1ea1cb8b2fe45034eddcc7",
    "03_reflections_and_spinor_norms.py": "76d9604dd85b9e20c48003ac3f95b585c273f52f5bbb0e3fa66b2a67f4d227e2",
    "04_flats_hyperplanes_intersections.py": "3c154e28a7c570e088ecc4ddf18f4f342c4b5fb5e35a2840f395cc98dfaace53",
    "05_arrangement_matrix.py": "5db0fec6154b242bd56a4be48ee637694ba8e7095c59f455b87b8d054a75efa9",
    "06_orientation_signs.py": "5b17a0d7c111634f62793a68bad6d6b30f02e340d5a7caa485f4bed8610cb058",
    "07_root_vectors.py": "c8d2db2c7ffbc0108890c2e0d759da27995b9d16003493f067f56e2686f9760f",
}


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=120,
    )


def test_there_are_seven_demos():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_is_deterministic(path):
    first = run_demo(path)
    second = run_demo(path)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout.encode()).hexdigest() == GOLDEN[path.name]
