"""The package's public surface: no public name that only tests use."""

from __future__ import annotations

import ast
import collections
from pathlib import Path

import cmdsim

PACKAGE = Path(cmdsim.__file__).parent


def _references(tree: ast.AST) -> collections.Counter[str]:
    """How often each name is read or written as a bare name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_public_top_level_name_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unreferenced = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and total[node.name] == _references(node)[node.name]
    ]
    assert unreferenced == []
