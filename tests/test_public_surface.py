"""The package's public surface: bindex.__all__ against what __init__ imports.

Reads bindex/__init__.py with the standard library's ast module, so no
linter is needed. Catches stale exports (a listed name that no longer
exists), duplicates, and public imports left out of __all__.
"""

from __future__ import annotations

import ast
from pathlib import Path

import bindex


def _imported_public_names() -> list[str]:
    tree = ast.parse(Path(bindex.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves():
    missing = [name for name in bindex.__all__ if not hasattr(bindex, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(bindex.__all__) == len(set(bindex.__all__))


def test_every_public_import_is_exported():
    imported = _imported_public_names()
    assert imported, "no imports found in bindex/__init__.py"
    assert sorted(set(imported) - set(bindex.__all__)) == []
