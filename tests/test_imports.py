"""Every name a package module imports is used there, and every function
or class a package module defines has a reader outside the tests.

A name that is imported only to stay importable from that module (a
re-export) carries ``# noqa: F401`` on its line, and must be a name that
the benchmark's tracer or worker reads as ``<module>.<name>``: the only
reason such a shim stays.  Once the benchmark stops reading one, its test
fails until the shim goes.  The package root ``__init__.py`` is all
re-exports and is skipped.

A top-level function or class must be used by package code outside
``__init__.py``, named by README, or read by the benchmark's tracer or
worker as ``<module>.<name>``.  Code that only the tests call belongs in
``tests/reference.py``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairtrade"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARK_READERS = (ROOT / "perfbench" / "tracer.py", ROOT / "perfbench" / "worker.py")
README = ROOT / "README.md"


def _imports(path: Path) -> tuple:
    """(unused imports, re-exported names) of one module, each as 'file:line name'."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, reexported = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                shim = "# noqa: F401" in lines[alias.lineno - 1]
                (reexported if shim else imported).append((name, alias.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{lineno} {name}" for name, lineno in imported if name not in used]
    return unused, [f"{path.name}:{lineno} {name}" for name, lineno in reexported]


def _without_a_reader(modules, readme: str, readers: str) -> list:
    """Top-level functions and classes of ``modules`` that none of them uses,
    ``readme`` does not name and ``readers`` do not read as <module>.<name>,
    each as 'file:line name'."""
    trees = {path: ast.parse(path.read_text()) for path in modules}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
        and not re.search(rf"\b{re.escape(node.name)}\b", readme)
        and not re.search(rf"\b{path.stem}\.{re.escape(node.name)}\b", readers)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _imports(path)[0] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_reexport_is_read_by_the_benchmark(path):
    readers = "\n".join(reader.read_text() for reader in BENCHMARK_READERS)
    unread = [
        entry
        for entry in _imports(path)[1]
        if not re.search(rf"\b{path.stem}\.{re.escape(entry.split()[-1])}\b", readers)
    ]
    assert unread == [], "re-exports no benchmark file reads as <module>.<name>; delete them"


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from math import e  # noqa: F401\n"
        "print(pi, os.path.sep)\n"
    )
    assert _imports(module) == (["module.py:3 tau"], ["module.py:4 e"])


def test_every_package_function_and_class_has_a_reader():
    readers = "\n".join(reader.read_text() for reader in BENCHMARK_READERS)
    unread = _without_a_reader(MODULES, README.read_text(), readers)
    assert unread == [], "only the tests call these; move them to tests/reference.py"


def test_the_scan_sees_a_definition_without_a_reader(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "def called():\n    pass\n\n\n"
        "def named():\n    pass\n\n\n"
        "def traced():\n    pass\n\n\n"
        "def imported_only():\n    pass\n\n\n"
        "class Orphan:\n    pass\n"
    )
    b.write_text("from a import called, imported_only\n\ncalled()\n")
    unread = _without_a_reader([a, b], "`named` is documented", "a.traced(x)")
    assert unread == ["a.py:13 imported_only", "a.py:17 Orphan"]
