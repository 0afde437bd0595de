"""Lint checks on the package source, read with `ast`.

Every name a module lists in `__all__` is defined in it, every import at a
module's top level (other than `from __future__ import annotations`) is used
somewhere in that module, every underscore function, class or constant a
module defines at top level is used elsewhere in that module, and no module
imports an underscore name from another `dwigner` module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dwigner"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def top_level_imports(tree):
    """(bound name, line) for each name a top-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def defined_names(node) -> set:
    """The names a top-level function, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return set()


def top_level_definitions(tree):
    names = {name for name, _ in top_level_imports(tree)}
    for node in tree.body:
        names |= defined_names(node)
    return names


def declared_all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def loaded_names(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_are_defined(path):
    tree = parse(path)
    missing = sorted(set(declared_all(tree)) - top_level_definitions(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_top_level_imports_are_used(path):
    tree = parse(path)
    used = loaded_names(tree) | set(declared_all(tree))
    unused = [f"{name} (line {line})" for name, line in top_level_imports(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_definitions_are_used(path):
    # a use inside the definition itself, such as a recursive call, does not count
    tree = parse(path)
    loads = [loaded_names(node) for node in tree.body]
    unused = [
        f"{name} (line {node.lineno})"
        for i, node in enumerate(tree.body)
        for name in sorted(defined_names(node))
        if is_private(name) and not any(name in used for j, used in enumerate(loads) if j != i)
    ]
    assert not unused, f"{path.name}: unused private definitions {unused}"


def imported_private_names(tree):
    """(name, line) for each underscore name (not a dunder such as
    `__version__`) imported from a dwigner module, at top level or inside a
    function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "dwigner"
        ):
            for alias in node.names:
                if is_private(alias.name):
                    yield alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_cross_modules(path):
    private = [f"{name} (line {line})" for name, line in imported_private_names(parse(path))]
    assert not private, f"{path.name}: imports private names {private}"
