"""Properties of the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
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
# private names of one package module that others may read: linalg's exact
# core, which the lattice, isometry, sign and arrangement layers share
SHARED_PRIVATE = {"linalg._identity", "linalg._congruence", "linalg._bareiss_int"}
# optional parameters of public functions and methods that no call in the
# package, the demos or the benchmark passes, each kept for the reason given
UNSET_ALLOWED = {
    # the paper's main signature (g, g) gives flats with an empty rest,
    # where the rest clause fails as stated
    "grassmann.general_position(skip_rest_clause_when_empty)",
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


def test_the_benchmark_self_test_passes():
    # the benchmark's checks read the program's output and its metric names;
    # a change to the package that breaks them fails here, not only in a
    # benchmark run
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stderr.rstrip().endswith("OK")


def test_uncovered_reports_the_lines_a_cli_run_never_reaches(tmp_path):
    # tests/uncovered.py --cli traces the program's own runs: the k3 lattice
    # argv reads the k3 branch of standard_lattice and enumerates no root
    from geocycle import obstructions

    argvs = tmp_path / "argvs.json"
    argvs.write_text(json.dumps([["lattice", "--kind", "k3"]]))
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "uncovered.py"), "--cli", str(argvs)],
                          capture_output=True, text=True, cwd=ROOT, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(SOURCE.parent)})
    assert done.returncode == 0, done.stderr[-4000:]
    report = json.loads(done.stdout)
    body, start = inspect.getsourcelines(obstructions.enumerate_roots)
    assert any(start < line < start + len(body) for line in report["obstructions.py"])
    k3 = (SOURCE / "lattices.py").read_text().splitlines().index('    if kind == "k3":') + 2
    assert k3 not in report.get("lattices.py", [])


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


def _local_names(path, tree):
    """The names a file binds itself, by def, class, assignment or
    parameter, but for a package module's top-level definitions: those are
    the helpers the scan looks for, and their uses in their own module count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    if path.parent == SOURCE:
        names -= {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return names


def _names_used(paths):
    """Every Name, Attribute and identifier-like string constant in the
    files. A bare name counts only in a file that does not bind it as a
    local name: a benchmark's own function kernel is no use of a package
    helper named kernel. An imported name is not local and counts."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = _local_names(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in local:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def _caller_paths():
    """The package's modules but __init__.py, and with them the demos and
    the benchmark: the files whose uses and calls count."""
    modules = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
    others = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return modules, modules + others


def _public_definitions(path):
    """(qualname, node, in_class) of each public function and class of a
    module, and of each public method of its public classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f"{node.name}.{f.name}", f, True


def test_every_public_helper_has_a_caller():
    # a public helper that only the tests call is dead code in the package:
    # it goes, or its test copy moves to tests/oracles.py. Exports in
    # __init__.py do not count as callers; a name used anywhere counts, so
    # this finds names used nowhere rather than proving a call
    modules, callers = _caller_paths()
    used = _names_used(callers)
    uncalled = {
        f"{path.stem}.{qualname}"
        for path in modules
        for qualname, node, _ in _public_definitions(path)
        if node.name not in used
    }
    assert uncalled == UNCALLED_ALLOWED


def _optional_parameters(f, method):
    """(name, position or None) of each optional parameter of a function
    definition; a method's positions do not count self."""
    positional = f.args.posonlyargs + f.args.args
    first = len(positional) - len(f.args.defaults)
    out = [(a.arg, i - method) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]


def test_every_optional_parameter_is_set_by_the_program():
    # an optional parameter that no caller passes is a knob that changes
    # nothing: it goes, or is listed with its reason. A call is matched to a
    # definition by the called name alone, as for the helpers above; *args
    # passes every position and **kwargs every keyword
    modules, callers = _caller_paths()
    positions, keywords = {}, {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = math.inf if starred else len(node.args)
                positions[name] = max(positions.get(name, 0), count)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    unset = set()
    for path in modules:
        for qualname, f, method in _public_definitions(path):
            if not isinstance(f, ast.FunctionDef):
                continue
            passed = keywords.get(f.name, set())
            for arg, position in _optional_parameters(f, method):
                by_position = position is not None and positions.get(f.name, 0) > position
                if not by_position and arg not in passed and None not in passed:
                    unset.add(f"{path.stem}.{qualname}({arg})")
    assert unset == UNSET_ALLOWED


def test_every_parameter_is_read():
    # a parameter its body never reads is a knob that changes nothing, and
    # every caller passes it for no effect. A lambda is exempt: ALL_CHECKS'
    # adapters take the seed whether their check reads it or not
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = f.args
            params = [x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x]
            read = {n.id for stmt in f.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            unread += [f"{path.stem}.{f.name}({p})" for p in params if p not in read]
    assert unread == []


def test_every_private_name_is_read():
    # a top-level private function or class, or a module-level assigned
    # name, that nothing in the package reads is dead code the public-helper
    # scan does not see: a load, an attribute or an import counts as a read,
    # and dunders such as __version__ are exempt
    paths = sorted(SOURCE.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for path, tree in zip(paths, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in names
                       if name not in read and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []


def test_all_checks_names_each_check_once():
    # verify-all's table and the check functions are kept in step: each
    # entry of ALL_CHECKS calls check_<its name>, and each check_ function
    # of verify.py has one entry
    tree = ast.parse((SOURCE / "verify.py").read_text(encoding="utf-8"))
    defined = sorted(node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("check_"))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["ALL_CHECKS"]]
    entries = [(name.value, [n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call)])
               for name, fn in (entry.elts for entry in table.elts)]
    assert [calls for _, calls in entries] == [[f"check_{name}"] for name, _ in entries]
    assert sorted(f"check_{name}" for name, _ in entries) == defined
    assert [name for name, _ in entries] == [name for name, _ in importlib.import_module("geocycle.verify").ALL_CHECKS]


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead code, and the helper scan
    # counts its import as a use: each subclass of GeocycleError in
    # errors.py is named by a raise statement of the package
    classes = {node.name for node in ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef) and node.name != "GeocycleError"}
    raised = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    assert len(classes) >= 17
    assert sorted(classes - raised) == []


def _definitions():
    """The names a docstring reference may use for a definition of the
    package: f, m.f, C.f and m.C.f for each module m, its top-level
    functions, classes and assigned names, and the methods and annotated
    fields of its classes C."""
    names = set()
    for path in SOURCE.glob("*.py"):
        m = path.stem
        names.add(m)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            names.update(top + [f"{m}.{name}" for name in top])
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    name = getattr(f, "name", None) or getattr(getattr(f, "target", None), "id", None)
                    if name:
                        names.update({name, f"{node.name}.{name}", f"{m}.{node.name}.{name}"})
    return names


def test_every_docstring_reference_names_a_definition():
    # a :func:, :meth:, :attr: or :class: reference in a docstring names a
    # definition of the package, so deleting or renaming a helper leaves no
    # docstring pointing at it
    pattern = re.compile(r":(?:func|meth|attr|class):`~?([\w.]+)`")
    defined = _definitions()
    refs = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                refs += [(path.stem, ref) for ref in pattern.findall(ast.get_docstring(node) or "")]
    assert len(refs) >= 35
    assert [f"{m}: {ref}" for m, ref in refs if ref not in defined] == []


def _unused_imports(tree):
    """The names a module's imports bind and it never reads. A read is a
    loaded Name, which covers the base of an attribute, or a name inside a
    string annotation; a __future__ import binds no name."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for text in (n.value for a in annotations if a for n in ast.walk(a)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)):
            read.update(n.id for n in ast.walk(ast.parse(text, mode="eval"))
                        if isinstance(n, ast.Name))
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    # an import that nothing in its module reads is a leftover of a deleted
    # use. __init__.py is exempt: importing the public names to re-export
    # them is what it is for
    unused = [
        f"{path.stem}: {name}"
        for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def _private_reads(tree):
    """(module, name) for each _-prefixed, non-dunder name of another package
    module that a module's tree imports, or reads as module._name through a
    module it imported whole. Package modules import each other relatively."""
    modules = {}  # the local name of each package module imported whole
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                reads += [(node.module, a.name) for a in node.names]
            else:
                modules.update({a.asname or a.name: a.name for a in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            reads.append((modules[node.value.id], node.attr))
    return [(m, name) for m, name in reads
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def test_no_module_reads_another_modules_private_name():
    # a _-prefixed name belongs to its module: another module that imports
    # it, or reads it as module._name, ties itself to internals the owner
    # may change. The exact core's shared helpers are the one exception,
    # and each of them is read
    reads = {
        (path.stem, f"{module}.{name}")
        for path in sorted(SOURCE.glob("*.py"))
        for module, name in _private_reads(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {name for _, name in reads} >= SHARED_PRIVATE
    assert sorted(f"{m} reads {name}" for m, name in reads if name not in SHARED_PRIVATE) == []
