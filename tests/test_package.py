"""The package's public names: `__all__` against what `__init__` binds,
and what the benchmark's tracer (`bench/spans.py`) wraps and reads."""

import ast
import contextlib
import importlib.util
import io
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


def _load_spans(monkeypatch):
    """`bench/spans.py` as a module, loaded without writing bytecode into `bench/`."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)     # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_bench_tracer_wraps_is_bound(monkeypatch):
    # bench/spans.py looks its names up by string in traced runs only; a
    # deletion here should fail in the tests, not in a traced bench run
    spans = _load_spans(monkeypatch)
    assert spans._WRAPS
    for modname, attr, _, _ in spans._WRAPS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    from laakso import cli
    assert callable(cli.build_parser) and callable(cli.render_json)


def test_a_traced_run_reads_every_layer_it_calls(monkeypatch):
    # the tracer also reads what the names return, as `len(graph.vertices)`
    # for graphs.vertices: a traced call of each command must run, count
    # its layer, and leave every name as it found it
    from laakso import cli

    spans = _load_spans(monkeypatch)
    targets = [(importlib.import_module(m), attr) for m, attr, _, _ in spans._WRAPS]
    targets += [(cli, "build_parser"), (cli, "render_json")]
    before = [getattr(module, attr) for module, attr in targets]
    calls = ["census --j 2 --periodic --level 3 --region well",
             "spectrum --kind free --j 2 --periodic --lambda-max 1e3",
             "solve --j 2 --periodic --level 2 --count 4 --trace 1",
             "zeta --j 2,3 --periodic --s 2",
             "casimir --N 7 --Z 2 --X0 0.15"]
    with spans.patched(spans.Tracer()) as tracer:
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv.split()) == 0, argv
    assert [getattr(module, attr) for module, attr in targets] == before
    metrics = spans.layer_metrics(tracer)
    for key in ("graphs.cells", "graphs.vertices", "spectra.lines", "solver.cluster_s",
                "solver.trace_s", "zeta.periodic_calls", "casimir.calls"):
        assert metrics[key] > 0, key
