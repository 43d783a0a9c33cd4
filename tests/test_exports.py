import ast
import dataclasses
import importlib
import inspect
import re
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import revmarkov
from revmarkov import exceptions

ROOT = Path(__file__).resolve().parent.parent
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


def referenced_names(path):
    """Every name a Python file loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


MODULE_FILES = sorted((ROOT / "src" / "revmarkov").glob("[!_]*.py"))
PROGRAM_FILES = [
    *MODULE_FILES,
    *(ROOT / "demos").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_public_name_has_a_reader():
    # a public name only the tests read belongs in ``tests/``: its readers
    # are the package modules (its definition and ``__all__`` entry are no
    # references, ``__init__`` only re-exports), the demos, the benchmark
    # and the README
    referenced = set().union(*map(referenced_names, PROGRAM_FILES))
    unread = [
        f"{path.stem}.{name}"
        for path in MODULE_FILES
        for name in getattr(importlib.import_module(f"revmarkov.{path.stem}"), "__all__", [])
        if name not in referenced and not re.search(rf"\b{name}\b", README)
    ]
    assert not unread, f"public names read by no program path: {', '.join(unread)}"


def attribute_reads(path):
    """Every ``.name`` a Python file reads; a field annotation or ``def`` is
    a declaration, not a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def class_members(cls):
    """The public dataclass fields, properties and methods a class declares.

    Exempt: names with a leading underscore, which are private or, as
    dunders, called by the language.  Not collected: enum members, which
    are values read through the enum (``Kind.MEMBER`` is their use),
    and ``NamedTuple`` fields, which unpacking and indexing read
    without a name (``KKTResiduals`` is consumed as a tuple).
    """
    names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    for name, value in vars(cls).items():
        if isinstance(value, (property, staticmethod, classmethod)) or inspect.isfunction(value):
            names.append(name)
    return [name for name in names if not name.startswith("_")]


def test_every_public_class_member_has_a_reader():
    # a field, property or method of an exported class that only the tests
    # read is test-only surface too; its readers are ``.name`` in the same
    # program files as above, or in the README
    read = set().union(*map(attribute_reads, PROGRAM_FILES))
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"revmarkov.{name}")
        for public in module.__all__:
            cls = getattr(module, public)
            if not inspect.isclass(cls):
                continue
            unread += [
                f"{public}.{member}"
                for member in class_members(cls)
                if member not in read and not re.search(rf"\.{member}\b", README)
            ]
    assert not unread, f"class members read by no program path: {', '.join(unread)}"


def declared_members(path):
    """``(class, name)`` for every method, annotated field and class-level
    assignment of each class a Python file defines."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        yield node.name, target.id


#: Types whose attributes the program files read besides their own classes'.
LIBRARY_TYPES = (dict, list, tuple, set, str, np.ndarray, sp.csr_matrix)

#: Members of exported classes that the reader check above cannot judge: some
#: other class in the program files declares the same name, or a NumPy array,
#: a SciPy sparse matrix or a builtin container has it, so a ``.name`` read
#: does not show whose member it is.  Each was judged by reading its
#: receivers: all have a reader of their own class in the program files.
JUDGED_BY_HAND = frozenset(
    {
        "BenchmarkConfig.seed",
        "ClassReport.cg_iterations",
        "ClassReport.distance",
        "ClassReport.factor_steps",
        "ClassReport.indices",
        "ClassReport.iterations",
        "ClassReport.kkt_residuals",
        "ClassReport.to_dict",
        "ClassReport.y_m",
        "ErgodicDecomposition.transient",
        "IndexMaps.n",
        "IndexMaps.y_m",
        "LangevinConfig.seed",
        "PipelineDiagnostics.distance",
        "PipelineDiagnostics.to_dict",
        "PipelineDiagnostics.transient",
        "ProbabilityVector.n",
        "ProbabilityVector.values",
        "ReducedQP.n",
        "ReducedQP.y_m",
        "SolverResult.cg_iterations",
        "SolverResult.factor_steps",
        "SolverResult.iterations",
        "SolverResult.kkt_residuals",
        "SparseStochasticMatrix.csr",
        "SparseStochasticMatrix.n",
        "SparseStochasticMatrix.nnz",
        "SparseStochasticMatrix.toarray",
        "SparsityPattern.csr",
        "SparsityPattern.n",
        "SparsityPattern.size",
    }
)


def test_shared_member_names_are_judged_by_hand():
    # a member read only by the tests passes the reader check when another
    # class has a member of its name (``Tracer.to_json`` in
    # ``perfbench/bench.py`` once hid ``PipelineDiagnostics.to_json``), so a
    # new collision fails here until its readers are checked by hand
    declared = {}
    for cls, name in (pair for path in PROGRAM_FILES for pair in declared_members(path)):
        declared.setdefault(name, set()).add(cls)
    library = set().union(*map(dir, LIBRARY_TYPES))
    shared = set()
    for module_name in MODULES:
        module = importlib.import_module(f"revmarkov.{module_name}")
        for public in module.__all__:
            cls = getattr(module, public)
            if inspect.isclass(cls):
                shared.update(
                    f"{public}.{member}"
                    for member in class_members(cls)
                    if declared.get(member, set()) - {public} or member in library
                )
    assert shared == JUDGED_BY_HAND, (
        f"new: {sorted(shared - JUDGED_BY_HAND)}, gone: {sorted(JUDGED_BY_HAND - shared)}"
    )


def settings():
    """``(owner, callee, name, place, field, default)`` for every defaulted
    parameter of an exported function or method and every defaulted field of
    an exported dataclass.  ``callee`` is the name a call uses (the class for
    a constructor), ``place`` the parameter's index among a call's positional
    arguments (``None`` when keyword-only), and ``field`` is set for a
    dataclass field."""
    for module_name in MODULES:
        module = importlib.import_module(f"revmarkov.{module_name}")
        for public in module.__all__:
            obj = getattr(module, public)
            field = dataclasses.is_dataclass(obj)
            if inspect.isfunction(obj) or field:
                routines = [(public, public, obj, 0)]
            elif inspect.isclass(obj):
                # a method's receiver fills its first parameter
                routines = [
                    (
                        f"{public}.{name}",
                        public if name == "__init__" else name,
                        getattr(value, "__func__", value),
                        0 if isinstance(value, staticmethod) else 1,
                    )
                    for name, value in vars(obj).items()
                    if inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod))
                    if name == "__init__" or not name.startswith("_")
                ]
            else:
                continue
            for owner, callee, routine, skip in routines:
                parameters = list(inspect.signature(routine).parameters.values())[skip:]
                for place, p in enumerate(parameters):
                    if p.default is not inspect.Parameter.empty:
                        positional = p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                        yield owner, callee, p.name, place if positional else None, field, p.default


def program_calls(paths):
    """The calls in some Python files, as ``(positional arguments, keyword
    arguments by name)`` per callee name, and the files' string constants.
    A call with a starred positional argument lists no positional ones."""
    calls, strings = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg: k.value for k in node.keywords if k.arg}
                calls.setdefault(callee, []).append(([] if starred else node.args, keywords))
    return calls, strings


def passes_default(node, default):
    """Whether an argument is the literal ``default`` or, for an enum
    default, its member named through its class."""
    if isinstance(default, Enum):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == default.name
            and getattr(node.value, "id", getattr(node.value, "attr", None)) == type(default).__name__
        )
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False  # a variable or an expression: another value
    return type(value) is type(default) and value == default


def test_every_setting_has_a_program_caller():
    # a defaulted parameter or field that no program path sets to a second
    # value is a knob only the tests turn.  A call in the program files above
    # sets it when it passes, by keyword or by position, anything but the
    # default itself; a dataclass field is also set when its name is a
    # string there (``cli._add_field`` sets fields so)
    calls, strings = program_calls(PROGRAM_FILES)
    found = list(settings())
    unset, default_only = [], []
    for owner, callee, name, place, field, default in found:
        if field and name in strings:
            continue
        passed = [
            keywords[name] if name in keywords else args[place]
            for args, keywords in calls.get(callee, ())
            if name in keywords or (place is not None and len(args) > place)
        ]
        if not passed:
            unset.append(f"{owner}({name}=...)")
        elif all(passes_default(node, default) for node in passed):
            default_only.append(f"{owner}({name}={default!r})")
    assert len(found) > 20, "the settings were not collected"
    assert not unset, f"settings set by no program call: {', '.join(unset)}"
    # every program call of ``submatrix`` is in the benchmark's fixed replay
    # (``perfbench/spans.py``), so its ``stochastic`` waits for the next
    # benchmark change; once it is gone this assertion fails and must shrink
    assert default_only == ["SparseStochasticMatrix.submatrix(stochastic=True)"], (
        f"settings every program call passes the default: {', '.join(default_only)}"
    )
