"""Source hygiene: no dead or nested imports, no private leftovers, no
unread dataclass fields, the public API lists what it imports, the
benchmark's tracer still finds what it wraps, and the committed benchmark
trajectory is whole."""

import ast
import importlib
import json
from pathlib import Path

import pytest

import relends
from relends import schreier
from relends.presentation import Presentation

PACKAGE = Path(relends.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _all_list(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a package re-exports by listing the name in __all__
    unused = _imported_names(tree) - used - _all_list(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_at_module_level(path):
    # an import inside a function hides a dependency (or a cycle) from the
    # module header
    tree = ast.parse(path.read_text())
    nested = [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"{path.name} imports inside a function at lines {nested}"


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    public = {name for name in _imported_names(tree) if not name.startswith("_")}
    assert set(relends.__all__) == public | {"__version__"}


def _module_private_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    unused = {
        f"{name}:{n}"
        for name, tree in trees.items()
        for n in _module_private_names(tree) - used
    }
    assert not unused, f"private names nothing in the package uses: {sorted(unused)}"


# the CLI writes these whole into its JSON reports (asdict, to_json_dict),
# so a field nothing reads by name is still output
SERIALIZED = {
    "ConditionReport",
    "CoveringReport",
    "CoveringViolation",
    "SmallCancellationReport",
    "RipsReport",
    "ConstantsLedger",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.name}.{field.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls) and cls.name not in SERIALIZED
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert not unread, f"dataclass fields nothing in the package reads: {unread}"


def test_bench_files_hold_every_workload_at_both_trace_levels():
    # each root BENCH_*.json is a list of perfbench/run.py result objects
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        trace: {m["name"] for m in spec[kind]}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"))
    }
    wanted = sorted((w["name"], trace) for w in spec["workloads"] for trace in declared)
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        results = json.loads(path.read_text())
        assert sorted((r["workload"], r["trace"]) for r in results) == wanted, path.name
        for r in results:
            missing = declared[r["trace"]] - set(r["metrics"])
            assert not missing, (path.name, r["workload"], r["trace"], sorted(missing))


def test_the_benchmark_tracer_finds_every_target():
    # perfbench/tracing.py wraps these module attributes by name and unpacks
    # _raw_enumerate's result as (cells, uf, pdist, find); read, not imported
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    for module, attr, _name in targets:
        assert module.split(".")[0] == "relends", module
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    result = schreier._raw_enumerate(Presentation(("a", "b"), ()), (), 2, 1000)
    assert isinstance(result, tuple) and len(result) == 4
    _cells, uf, _pdist, _find = result
    assert len(uf) == 1 + 4 + 12
