"""No module in the package, the tests or the demos imports a name it never
uses. ``from __future__`` imports and the package's re-exports in
``gbcd/__init__.py`` are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/gbcd", "tests", "demos")
               for p in (ROOT / d).glob("*.py")
               if p != ROOT / "src/gbcd/__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
