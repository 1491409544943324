"""Every top-level import of a library module is read somewhere in it.

An import that nothing reads is dead weight the module still loads; this
walks each module's syntax tree, so the check needs no linter.  Names
listed in ``__all__`` count as read (re-exports), ``from __future__``
imports are directives, and package ``__init__`` modules re-export by
design, so they are skipped.
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
