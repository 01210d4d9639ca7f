"""The package's public names: `__all__` against what `__init__` binds."""

import ast
import importlib.util
import os
import sys

import laakso

INIT = os.path.join(os.path.dirname(laakso.__file__), "__init__.py")
SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


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


def test_every_name_the_bench_tracer_wraps_is_bound(monkeypatch):
    # bench/spans.py looks its names up by string in traced runs only; a
    # deletion here should fail in the tests, not in a traced bench run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)     # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans._WRAPS
    for modname, attr, _, _ in spans._WRAPS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    from laakso import cli
    assert callable(cli.build_parser) and callable(cli.render_json)
