"""Where the package multiplies arrays: every raw product is on a list.

A ranked or thresholded cosine score goes through
``embedding.similarities``, whose products do not change bits with the
BLAS thread count and score equal rows of one slice equally: DBSCAN's
tiles, negative mining, eval retrieval and eval detect, and the adapter's
validation MRR@3.  Every other ``@``, ``np.matmul``, ``np.dot`` or
``np.einsum`` is a fit and is listed below with its reason, so that a new
raw scoring product is a deliberate choice.
"""

from __future__ import annotations

import ast
import collections

from test_surface import _package_trees

PRODUCT_CALLS = {"matmul", "dot", "einsum"}

# (module, enclosing function) -> number of product sites in it.
ALLOWED = collections.Counter({
    # The one scoring product.
    ("embedding.py", "similarities"): 1,
    # Adapter training: the map itself, the InfoNCE gradient and the
    # logged loss.  Fits, not rankings.
    ("contrastive.py", "AdapterModel.transform"): 1,
    ("contrastive.py", "info_nce_gradients"): 7,
    ("contrastive.py", "train"): 1,
    # The logistic-regression probe of eval classify: its fit and predict.
    ("evaluation.py", "_fit_multinomial"): 2,
    ("evaluation.py", "_predict"): 1,
})


def _product_sites(module: str, node: ast.AST, scope: tuple[str, ...] = ()):
    """(module, dotted enclosing function or class) of each product under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _product_sites(module, child, (*scope, child.name))
            continue
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
            yield module, ".".join(scope)
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and child.func.attr in PRODUCT_CALLS):
            yield module, ".".join(scope)
        yield from _product_sites(module, child, scope)


def test_every_raw_product_is_allowed():
    sites = collections.Counter(
        site for module, tree in _package_trees().items() for site in _product_sites(module, tree)
    )
    assert sites == ALLOWED


def test_the_walk_sees_each_kind_of_product():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    return a @ b, np.matmul(a, b), np.dot(a, b), a.dot(b), np.einsum('i,i', a, b)\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        return [x @ x for x in a]\n"
    )
    assert list(_product_sites("m.py", tree)) == [("m.py", "f")] * 6 + [("m.py", "C.g")]
