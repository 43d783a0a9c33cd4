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
    for name in errors:
        assert getattr(revmarkov, name, None) is getattr(exceptions, name), name
