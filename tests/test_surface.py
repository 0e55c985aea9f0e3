"""The package's public surface: no public name that only tests use."""

from __future__ import annotations

import ast
import collections
from pathlib import Path

import cmdsim

PACKAGE = Path(cmdsim.__file__).parent


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _references(tree: ast.AST) -> collections.Counter[str]:
    """How often each name is read or written as a bare name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_public_top_level_name_is_referenced_in_the_package():
    trees = _package_trees()
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


def _members(cls: ast.ClassDef):
    """The public methods, properties and fields declared in ``cls``'s body,
    and every non-dunder attribute its methods set on ``self``."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.AnnAssign) and not node.target.id.startswith("_"):
            yield node.target.id
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and not (node.attr.startswith("__") and node.attr.endswith("__"))):
            yield node.attr


def test_every_class_member_is_read_in_the_package():
    """Each member of a module-level package class is read somewhere in the
    package as ``something.member``.

    The check goes by name, not by type, so a read of a same-named
    attribute on another object can hide a member that nothing reads:
    an HTTP reply's ``response.status`` hid ``ProviderError.status``, and
    ``ReplyJournal.calls``, which the journal's own log line reads, hid
    the embedding backends' ``calls`` counters, until both were deleted.
    Dunder methods are out of its scope."""
    trees = _package_trees()
    reads = collections.Counter(
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )
    unread = [
        f"{module}: {cls.name}.{member}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in sorted(set(_members(cls)))
        if not reads[member]
    ]
    assert unread == []
