"""Every name a package module or demo imports is used in that file.

No linter ships with the toolchain, so this reads each file's syntax tree
with the standard library: a name bound by ``import`` or ``from ... import``
counts as used when it is loaded anywhere in the file (an attribute chain
counts through its root name) or listed in ``__all__``.  The package's
``__init__.py`` only re-exports and is left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "trigmoment").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_files_found():
    assert any(p.parent.name == "demos" for p in FILES)
    assert any(p.parent.name == "trigmoment" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom numpy import array as arr\nos.path.join\n"
    assert unused_imports(source) == ["arr (line 3)", "math (line 1)"]
