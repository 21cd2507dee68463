"""Every name a package module imports is used there.

A name that is imported only to stay importable from that module (a
re-export) carries ``# noqa: F401`` on its line, and must be a name that
the benchmark's tracer or worker reads as ``<module>.<name>``: the only
reason such a shim stays.  Once the benchmark stops reading one, its test
fails until the shim goes.  The package root ``__init__.py`` is all
re-exports and is skipped.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairtrade"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARK_READERS = (ROOT / "perfbench" / "tracer.py", ROOT / "perfbench" / "worker.py")


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
