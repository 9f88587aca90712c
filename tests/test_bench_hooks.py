"""The benchmark reaches bindex attributes by name.

benchmarks/spans.py lists the span wrappers as (module, attribute) hooks,
and the bodies in benchmarks/workloads.py call through module attributes
(`extremal.admissible_x`); a rename or a moved import in bindex would make
the benchmark fail, so every such name must resolve.
"""

from __future__ import annotations

import ast
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


def test_every_workload_attribute_resolves():
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: import_module(f"bindex.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "bindex"
        for alias in node.names
    }
    assert {"constructors", "extremal", "graphs", "indices", "oracle"} <= set(modules)
    read = [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    # count_items(module, "name", counts) swaps module.name for a counter
    read += [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "count_items"
    ]
    assert ("extremal", "admissible_x") in read
    assert ("oracle", "enumerate_connected_bipartite") in read
    missing = sorted({(m, attr) for m, attr in read if not hasattr(modules[m], attr)})
    assert missing == []


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
