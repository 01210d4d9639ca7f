"""The package's public names: `__all__` against what `__init__` binds."""

import ast
import os

import laakso

INIT = os.path.join(os.path.dirname(laakso.__file__), "__init__.py")


def _bound_public_names() -> set[str]:
    """Names the top level of `__init__.py` binds that do not start with _."""
    with open(INIT) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def test_all_lists_exactly_the_bound_public_names():
    assert len(laakso.__all__) == len(set(laakso.__all__)), "duplicate export"
    exported = {n for n in laakso.__all__ if not n.startswith("_")}
    assert exported == _bound_public_names()
    assert "__version__" in laakso.__all__


def test_star_import_binds_every_export():
    namespace = {}
    exec("from laakso import *", namespace)
    assert set(laakso.__all__) <= set(namespace)
