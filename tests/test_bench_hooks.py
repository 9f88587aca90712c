"""The benchmark's span wrappers patch bindex attributes by name.

benchmarks/spans.py lists them as (module, attribute) hooks; a rename in
bindex would make the traced benchmark fail, so every hook must resolve.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_span_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spans = import_module("spans")
    hooks = spans.LIBRARY_HOOKS + spans.CLI_HOOKS
    assert hooks
    for module, attr, *_ in hooks:
        assert callable(getattr(import_module(module), attr)), (module, attr)
    # Tracer.install also counts multisets through this one
    assert callable(import_module("bindex.oracle").combinations_with_replacement)
