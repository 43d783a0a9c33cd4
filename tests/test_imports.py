"""Every top-level import of the package modules and the tests is used, and
every module-level private name of the package is referenced somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "revmarkov").glob("*.py"))
# the package's __init__ imports names only to re-export them
SOURCES = sorted(
    path
    for path in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def imported_names(tree):
    """Name bound by each top-level import, with its line number."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def private_definitions(tree):
    """Name of each module-level private function, class and constant, with
    its line number."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(id=node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") and not name.id.startswith("__"):
                    yield name.id, node.lineno


def test_no_unreferenced_private_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + PACKAGE}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        f"{path.name}: {name} (line {line})"
        for path in PACKAGE
        for name, line in private_definitions(trees[path])
        if name not in referenced
    ]
    assert not unreferenced, f"unreferenced private definitions: {', '.join(unreferenced)}"
