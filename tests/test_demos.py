"""The demos run and print the same stdout every time.

Each demo runs twice in a fresh interpreter with the package imported from
this checkout's `src`; it must exit 0 both times with byte-identical stdout.
Wall times belong on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
