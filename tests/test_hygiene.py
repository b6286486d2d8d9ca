"""Source hygiene: no dead imports, and the public API lists what it imports."""

import ast
from pathlib import Path

import pytest

import relends

PACKAGE = Path(relends.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    public = {name for name in _imported_names(tree) if not name.startswith("_")}
    assert set(relends.__all__) == public | {"__version__"}
