"""Properties of the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import geocycle

SOURCE = Path(geocycle.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# public functions, classes and methods of the package that neither the
# package, the demos nor the benchmark uses, each kept for the reason given
UNCALLED_ALLOWED = {
    # settled to stay (ROADMAP): it runs on integer rows, and the tests
    # check subspace membership with it
    "linalg.Subspace.contains",
}


def test_no_assert_statements():
    # python -O strips asserts, so no certification may rest on one
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_traced_functions_exist():
    # the traced benchmark run looks every traced function up by name in its
    # layer's module, so deleting or renaming one breaks that run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{fn}"
        for layer, fns in spans.TRACED.items()
        for fn in fns
        if not inspect.isfunction(getattr(importlib.import_module(f"geocycle.{layer}"), fn, None))
    ]
    assert missing == []


def test_no_uncompared_dataclass_fields():
    # every dataclass compares all of its fields: a field left out of == is
    # a second representation that equality does not see
    classes = {
        obj
        for path in SOURCE.glob("*.py")
        for _, obj in inspect.getmembers(importlib.import_module(f"geocycle.{path.stem}"))
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__.startswith("geocycle")
    }
    assert len(classes) >= 10
    offenders = sorted(
        f"{cls.__module__}.{cls.__qualname__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if not f.compare
    )
    assert offenders == []


def _names_used(paths):
    """Every Name, Attribute and identifier-like string constant in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_helper_has_a_caller():
    # a public helper that only the tests call is dead code in the package:
    # it goes, or its test copy moves to tests/oracles.py. Exports in
    # __init__.py do not count as callers; a name used anywhere counts, so
    # this finds names used nowhere rather than proving a call
    modules = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
    used = _names_used(
        modules + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    )
    uncalled = set()
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{f.name}", f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]
            uncalled |= {f"{path.stem}.{qualname}" for qualname, name in defs if name not in used}
    assert uncalled == UNCALLED_ALLOWED
