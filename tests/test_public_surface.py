"""The package's public surface: bindex.__all__ against what __init__ imports,
and no library code that nothing reaches.

Reads the package's source with the standard library's ast module, so no
linter is needed. Catches stale exports (a listed name that no longer
exists), duplicates, public imports left out of __all__, and orphans:
module-level functions, classes and constants that are not exported, not
referred to by any other statement of the package, and not a registered
command. Also catches dead public surface: a public method or property that
no attribute read in the package reaches, and an exported name that no
other library module uses and no file under benchmarks/ reads; naming it
in README.md keeps nothing alive. Code only the tests call belongs in
tests/reference.py. Also catches an import that its module never uses
(__init__.py re-exports, and a line marked `# noqa: F401` keeps its import
on purpose), and any call of the alias Graph in the library or the tests:
a graph is a plain tuple, and calling the alias would silently build one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import bindex

PACKAGE = Path(bindex.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _modules() -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.glob("*.py"))]


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


def _is_command(node: ast.stmt) -> bool:
    """A function registered by a click decorator such as @cli.command("...")."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(node: ast.stmt) -> set[str]:
    """Every name, attribute and imported name a statement mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_no_orphaned_library_code():
    statements = [(path.stem, node) for path, tree in _modules() for node in tree.body]
    mentions = [_referenced_names(node) for _, node in statements]
    orphans = [
        f"{module}.{name}"
        for i, (module, node) in enumerate(statements)
        if not _is_command(node)
        for name in _defined_names(node)
        if name not in bindex.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name in seen for j, seen in enumerate(mentions) if j != i)
    ]
    assert orphans == []


def test_every_public_method_is_read_in_the_library():
    """A public method or property counts only through an attribute read
    (core.t, report.verdict), so a local variable of the same name does not."""
    trees = [tree for _, tree in _modules()]
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and fn.name not in read
    ]
    assert unread == []


def _benchmark_reads() -> set[str]:
    """Names, attributes, imported names and strings in the benchmark's code;
    benchmarks/spans.py names its hooks as strings."""
    names = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_export_is_used_named_or_benchmarked():
    """Each bindex.__all__ name is used by a statement of another library
    module (an import is no use) or is read by the benchmark. A mention in
    README.md does not count: a name that only the docs show is a
    pass-through the docs can show the replacement for."""
    used = {
        name
        for path, tree in _modules()
        if path.name != "__init__.py"
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _referenced_names(node) - set(_defined_names(node))
    }
    unused = sorted(set(bindex.__all__) - used - _benchmark_reads())
    assert unused == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never mentions, except on `# noqa: F401` lines."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{alias.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.split(".")[0]]
        if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_no_unused_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules, "no modules found"
    assert [line for p in modules for line in _unused_imports(p)] == []


def test_graph_is_never_called():
    """graphs.Graph is the alias tuple[int, ...]. Calling it returns a tuple
    of its argument, so such a call reads as a constructor that does not
    exist; build a graph with new_graph or a tuple instead."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    calls = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Graph"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Graph"
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("bindex", "graphs")
        )
    ]
    assert calls == []


def _benchmark_hooks() -> set[tuple[str, str]]:
    """(module, attribute) pairs that benchmarks/spans.py wraps: those of
    LIBRARY_HOOKS and CLI_HOOKS, and each attribute Tracer.install reads on a
    module it imports by name, such as bindex.oracle.combinations_with_replacement."""
    tree = ast.parse((ROOT / "benchmarks" / "spans.py").read_text(encoding="utf-8"))
    hooks = {
        (module, attr)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] in (["LIBRARY_HOOKS"], ["CLI_HOOKS"])
        for module, attr, *_ in ast.literal_eval(node.value)
    }
    (install,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "install"]
    imported = {
        node.targets[0].id: node.value.args[0].value
        for node in ast.walk(install)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "import_module"
        and isinstance(node.value.args[0], ast.Constant)
    }
    return hooks | {
        (imported[node.value.id], node.attr)
        for node in ast.walk(install)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
    }


def test_every_shim_import_is_still_hooked():
    """A `# noqa: F401` import is kept only for benchmarks/spans.py to wrap;
    once the benchmark drops that hook, the import must go with it.
    test_bench_hooks.py checks the other direction: every hook resolves."""
    hooks = _benchmark_hooks()
    assert hooks, "no hooks found in benchmarks/spans.py"
    shims = [
        (f"bindex.{path.stem}", alias.asname or alias.name)
        for path, tree in _modules()
        for lines in [path.read_text(encoding="utf-8").splitlines()]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]
    assert [shim for shim in shims if shim not in hooks] == []
