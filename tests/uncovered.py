"""The statement lines of src/geocycle that the tests, or a list of CLI
runs, never run.

    PYTHONPATH=src python tests/uncovered.py [pytest arguments]
    PYTHONPATH=src python tests/uncovered.py --cli ARGV.json

Runs the tests in this process under sys.settrace, tracing only frames
whose code lies in src/geocycle, and prints one JSON object: per module,
the sorted statement lines that never ran (modules with none are left
out). A statement line is the first line of a statement that compiles to
bytecode; a statement on a line marked "pragma: no cover" is skipped with
its body. Subprocesses, and the child that verify-all forks, run outside
this trace: what only they execute is listed too.

With --cli, ARGV.json holds a JSON list of argument lists, and each is
run through geocycle.cli.main in this process instead of the tests, its
output discarded; verify-all then claims its spinor cases itself instead
of forking, so they are traced. Only the standard library and pytest are
used, and pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geocycle"


def code_lines(code) -> set[int]:
    """The lines that carry bytecode in a code object and those it nests."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= code_lines(const)
    return out


def statement_lines(path: Path) -> set[int]:
    """The first lines of the file's statements that carry bytecode, less
    those on a "pragma: no cover" line and every statement under them."""
    source = path.read_text()
    text = source.splitlines()
    skipped: set[int] = set()
    starts: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if "pragma: no cover" in text[node.lineno - 1]:
            skipped |= {n.lineno for n in ast.walk(node) if isinstance(n, ast.stmt)}
        starts.add(node.lineno)
    return (starts - skipped) & code_lines(compile(source, str(path), "exec"))


def run_cli(argvs: list[list[str]]) -> int:
    """Run each argv through geocycle.cli.main, its stdout and stderr
    discarded, with verify-all's fork turned off; the report, not the runs'
    exit codes, is the result, so this returns 0."""
    from geocycle import cli, verify

    verify._can_fork = lambda: False
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return 0


def main(args: list[str]) -> int:
    ran: dict[str, set[int]] = {}  # per file name of the package, its lines run
    inside: dict[str, bool] = {}  # per file name seen, whether it is the package's

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = Path(filename).resolve().parent == PACKAGE
            if inside[filename]:
                ran[filename] = set()
        return local if inside[filename] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        if args[:1] == ["--cli"]:
            code = run_cli(json.loads(Path(args[1]).read_text()))
        else:
            code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines: dict[Path, set[int]] = {}
    for filename, run in ran.items():
        lines.setdefault(Path(filename).resolve(), set()).update(run)
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path) - lines.get(path, set()))
        if missed:
            report[path.name] = missed
    print(json.dumps(report, indent=1))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
