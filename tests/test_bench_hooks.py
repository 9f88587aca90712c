"""The benchmark's span wrappers patch bindex attributes by name.

benchmarks/spans.py lists them as (module, attribute) hooks; a rename in
bindex would make the traced benchmark fail, so every hook must resolve.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path

from bindex import oracle

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


def test_labeled_scan_goes_through_the_module_attribute(monkeypatch):
    # benchmarks/workloads.py LabeledScan counts kept masks by wrapping this attribute
    scan = oracle.labeled_connected_bipartite_masks
    seen = []

    def spy(n):
        masks = scan(n)
        seen.append((n, len(masks)))
        return masks

    monkeypatch.setattr(oracle, "labeled_connected_bipartite_masks", spy)
    oracle.labeled_class_certificates(5)
    assert seen == [(5, 195)]
