"""Every Python file parses at the floor pyproject.toml declares.

The floor is read from requires-python, and each .py file under src/,
tests/ and benchmarks/ goes through ast.parse with that feature_version.
The parser's check is best effort: it rejects grammar newer than the floor,
such as `except*` groups or type parameter lists, but not a newer library
name such as tomllib, which only an interpreter at the floor would catch.
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
