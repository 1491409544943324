"""Every top-level import of a library module is read somewhere in it, and
every top-level private name somewhere in the library.

An import that nothing reads is dead weight the module still loads; this
walks each module's syntax tree, so the check needs no linter.  Names
listed in ``__all__`` count as read (re-exports), ``from __future__``
imports are directives, and package ``__init__`` modules re-export by
design, so they are skipped.  A ``_private`` function, class or constant
that no library module reads (tests do not count) is a refactor's leftover.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shipintent"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, plus the strings listed in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_there_are_modules_to_check():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never read: {unused}"


def private_top_level_names(tree: ast.Module) -> dict[str, int]:
    """Each top-level ``_name`` a module defines (dunders aside) -> its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_every_private_top_level_name_is_read_in_the_library():
    # A helper that no module of the library reads any more is a leftover
    # of a refactor, however many tests still import it.
    read: set[str] = set()
    defined: dict[str, str] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        defined.update(
            (name, f"{path.name}:{line}") for name, line in private_top_level_names(tree).items()
        )
    unread = {name: where for name, where in defined.items() if name not in read}
    assert not unread, f"defined but read by no library module: {unread}"
