"""Checks on the source of src/oafinder itself: its modules read with ast,
its compiled patterns read with re's own parser, and the names perfbench
traces in it. The tests' own modules are held to the same unused-import
check."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import oafinder

PACKAGE = Path(oafinder.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
# Each module the unused-import check reads, by its test id.
SOURCES = {str(p.relative_to(PACKAGE)): p for p in MODULES}
SOURCES.update((f"tests/{p.name}", p) for p in sorted(TESTS.glob("*.py")))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", SOURCES.values(), ids=list(SOURCES))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_found():
    tree = ast.parse("import os, re as regex\nfrom typing import Iterable, "
                     "Optional\nfrom __future__ import annotations\n"
                     "x: Optional[int] = os.sep\n")
    assert unused_imports(tree) == [(1, "regex"), (2, "Iterable")]


# Regular-expression syntax that re accepts only from Python 3.11 on;
# pyproject.toml admits 3.10, where compiling it raises re.error at import.
PY311_REGEX_OPS = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def regex_ops(node) -> set[str]:
    """Names of the opcodes in a tree that re's parser returned."""
    if hasattr(node, "data"):  # a SubPattern
        node = node.data
    if isinstance(node, (list, tuple)):
        return set().union(*map(regex_ops, node))
    return {node.name} if hasattr(node, "name") else set()


def module_patterns():
    for info in pkgutil.walk_packages(oafinder.__path__, "oafinder."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield pytest.param(value, id=f"{module.__name__}.{name}")


@pytest.mark.parametrize("pattern", module_patterns())
def test_pattern_reads_on_python_310(pattern):
    parser = pytest.importorskip("re._parser")
    tree = parser.parse(pattern.pattern, pattern.flags)
    assert regex_ops(tree) & PY311_REGEX_OPS == set()


def test_py311_pattern_found():
    parser = pytest.importorskip("re._parser")
    for pattern, ops in [(r"\A([^:/?#]*://(?:[^/?#]*@)?+\[)V",
                          {"POSSESSIVE_REPEAT"}),
                         (r"(?>a|b)x*+", PY311_REGEX_OPS),
                         (r"\A(?:a@)?\[V(?![^@]*@)", set())]:
        assert regex_ops(parser.parse(pattern)) & PY311_REGEX_OPS == ops


def assigned_literal(path: Path, name: str):
    """The literal a module assigns to name at its top level, read without
    importing the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def traced_names(modules: dict) -> set[str]:
    """The span names perfbench's tracer wraps: layer.function for each
    public function a traced module defines, and layer.Class.method for each
    public method of a public class it defines."""
    names = set()
    for path, layer in modules.items():
        module = importlib.import_module(f"oafinder.{path}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                names.add(f"{layer}.{attr}")
            elif inspect.isclass(obj):
                names.update(f"{layer}.{attr}.{name}"
                             for name, method in vars(obj).items()
                             if not name.startswith("_")
                             and inspect.isfunction(method))
    return names


# Spans of functions that are already gone, which leave the benchmark in a
# change of their own (ROADMAP item 2). Until then they read 0.
STALE_SPANS = {"match.contains_title", "urls.dedup_urls",
               "records.apply_detections", "records.load_records"}


def test_perfbench_spans_are_traced():
    # A renamed or deleted function would otherwise read 0 without an error.
    run = PERFBENCH / "run.py"
    spans = ({span for _, span, _ in assigned_literal(run, "LAYER_SPANS")}
             | {span for _, span in assigned_literal(run, "SETUP_SPANS")})
    traced = traced_names(
        assigned_literal(PERFBENCH / "tracer.py", "TRACED_MODULES"))
    assert spans - traced == spans & STALE_SPANS
