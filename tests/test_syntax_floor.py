"""Every Python file parses at the floor pyproject.toml declares.

The floor is read from requires-python, and each .py file under src/,
tests/ and benchmarks/ goes through ast.parse with that feature_version.
The parser's check is best effort: it rejects grammar newer than the floor,
such as `except*` groups or type parameter lists, but not a newer library
name such as tomllib, which only an interpreter at the floor would catch.

Nor does it see a call that leans on a newer default: int.to_bytes and
int.from_bytes take byteorder as a required argument before 3.11, so every
such call under src/ must pass it, and to_bytes its length too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [(major, minor)] = re.findall(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    floor = (int(major), int(minor))
    paths = sorted(p for top in ("src", "tests", "benchmarks") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_every_int_byte_conversion_in_src_passes_its_length_and_byteorder():
    required = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}
    calls = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            names = required.get(node.func.attr)
            if names is None:
                continue
            passed = set(names[: len(node.args)]) | {k.arg for k in node.keywords}
            missing = [name for name in names if name not in passed]
            assert not missing, f"{path.relative_to(ROOT)}:{node.lineno}: {node.func.attr} without {', '.join(missing)}"
            calls += 1
    assert calls >= 1
