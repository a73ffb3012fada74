"""No module in ``src/secomp``, ``scripts`` or ``tests`` imports a name it never uses.

A standard-library stand-in for a linter's unused-import rule: a name bound
by an import must be read somewhere in the module (a string annotation
counts), or be listed in the module's ``__all__``. Nor does a module of
``src/secomp`` import a private (``_``-prefixed) name from another: what
two modules share is public.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src/secomp", "scripts", "tests") for path in (ROOT / folder).glob("*.py")
)
PACKAGE = sorted((ROOT / "src/secomp").glob("*.py"))


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    unused = {name: line for name, line in _bound_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_guard_flags_an_unused_import():
    tree = ast.parse("import json\nfrom math import pi, tau\nprint(tau)\n")
    used = _used_names(tree)
    assert {n for n in _bound_names(tree) if n not in used} == {"json", "pi"}


def _private_imports(tree: ast.Module) -> list[str]:
    """The ``_``-prefixed names that a relative ``from`` import binds."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _private_imports(tree), f"{path.name}: private imports {_private_imports(tree)}"


def test_guard_flags_a_private_import():
    tree = ast.parse("from .ascent import OptResult, _snap\nfrom os import _exit\n")
    assert _private_imports(tree) == ["_snap"]
