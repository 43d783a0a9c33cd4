import ast
import importlib
import inspect

import pytest

import revmarkov
from revmarkov import exceptions

MODULES = [
    "chain_analysis",
    "experiments",
    "pipeline",
    "qp_build",
    "qp_solve",
    "reversibilize",
    "sparse_core",
]


def package_imports():
    """``(module, name)`` for every name the package's ``__init__`` imports
    from one of its modules."""
    tree = ast.parse(inspect.getsource(revmarkov))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_come_from_known_modules():
    assert {module for module, _ in package_imports()} == {*MODULES, "exceptions"}


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_are_in_module_all(name):
    # a half-done deletion that keeps a function and its re-export but drops
    # its ``__all__`` entry fails here
    module = importlib.import_module(f"revmarkov.{name}")
    for module_name, public in package_imports():
        if module_name == name:
            assert public in module.__all__, f"{name}.__all__ lacks {public}"


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_reach_the_package(name):
    # import by path: ``revmarkov.reversibilize`` is also a function name
    module = importlib.import_module(f"revmarkov.{name}")
    for public in module.__all__:
        assert hasattr(module, public), f"{name}.__all__ lists missing {public}"
        assert getattr(revmarkov, public, None) is getattr(module, public), public


def test_every_error_is_exported():
    errors = [
        name
        for name, obj in vars(exceptions).items()
        if inspect.isclass(obj) and issubclass(obj, exceptions.RevMarkovError)
    ]
    assert "RevMarkovError" in errors
    # ``exceptions`` has no ``__all__``: the package imports its errors only
    imported = [name for module, name in package_imports() if module == "exceptions"]
    assert sorted(imported) == sorted(errors)
    for name in errors:
        assert getattr(revmarkov, name, None) is getattr(exceptions, name), name
