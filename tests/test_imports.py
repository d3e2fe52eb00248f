"""Every module-level import of the package and the tests is read.

The modules are parsed, not imported.  A name bound by a module-level
`import` or `from ... import` counts as read when the module loads it
anywhere (an `ast.Name` in load context, which covers attribute access on a
module and annotations) or lists it in `__all__`.  `from __future__` imports
bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unread_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_covers_every_tree():
    assert {p.relative_to(ROOT).parts[0] for p in MODULES} == {"src", "tests"}


def test_the_scan_finds_an_unread_import():
    tree = ast.parse("from __future__ import annotations\nimport os, re\n"
                     "from typing import Any\nimport numpy.linalg\n"
                     "__all__ = ['Any']\nre.compile('x')\n")
    assert unread_imports(tree) == ["os (line 2)", "numpy (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text(), str(path))) == []
