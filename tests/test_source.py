"""Properties of the package source itself."""

import ast
from pathlib import Path

import geocycle

SOURCE = Path(geocycle.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so no certification may rest on one
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
