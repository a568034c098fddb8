"""Properties of the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import geocycle

SOURCE = Path(geocycle.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
