"""Tracing from outside the program: wrap public functions, keep spans.

`patched(tracer)` replaces the names listed in `_WRAPS` (plus the CLI's
parser and renderer) with wrappers that record a span around each call,
and restores the original objects on exit.  Spans live in memory, carry
the index of their parent span, and yield self times (duration minus the
time covered by child spans).  `layer_metrics` turns one pass of spans
into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException as exc:
            sp.counts["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out


def _lines(sp, lines):
    sp.counts["lines"] = len(lines)


def _graph(sp, graph):
    sp.counts["cells"] = graph.num_cells
    sp.counts["vertices"] = len(graph.vertices)


def _operator(sp, op):
    sp.counts["dim"] = op.dimension
    sp.counts["nnz"] = op.matrix.nnz


def _eigen(sp, result):
    sp.counts["method"] = result.info["method"]
    sp.counts["polish_rounds"] = result.info["polish_rounds"]
    sp.counts["residual_max"] = result.info["residual_max"]


# (module, attribute, span name, annotate(span, result) or None).  The
# `laakso.cli` names are the ones `main` calls; `merge_lines` and `eigsh`
# are looked up in their own modules by the code that calls them.
_WRAPS = [
    ("laakso.cli", "free_spectrum", "spectra.free", _lines),
    ("laakso.cli", "square_well_spectrum", "spectra.square_well", _lines),
    ("laakso.cli", "plates_spectrum", "spectra.plates", _lines),
    ("laakso.spectra", "merge_lines", "spectra.merge", None),
    ("laakso.cli", "build_graph", "graphs.build", _graph),
    ("laakso.cli", "shape_census", "graphs.census", None),
    ("laakso.cli", "census_closed_form", "graphs.closed_form", None),
    ("laakso.cli", "interior_shape_counts", "graphs.closed_form", None),
    ("laakso.cli", "column_boundaries", "graphs.closed_form", None),
    ("laakso.cli", "well_geometry", "graphs.closed_form", None),
    ("laakso.cli", "discretize", "solver.discretize", _operator),
    ("laakso.cli", "solve_lowest", "solver.solve", _eigen),
    ("laakso.solver", "eigsh", "solver.eigsh", None),
    ("laakso.cli", "cluster", "solver.cluster", None),
    ("laakso.cli", "eigenfunction_trace", "solver.trace", None),
    ("laakso.cli", "spectral_zeta_periodic", "zeta.periodic", None),
    ("laakso.cli", "zeta_limit_half", "zeta.limit_half", None),
    ("laakso.cli", "zeta_poles", "zeta.poles", None),
    ("laakso.cli", "spectral_dimension", "zeta.poles", None),
    ("laakso.cli", "plate_zeta_energy", "casimir.energy", None),
    ("laakso.cli", "casimir_force", "casimir.force", None),
]


def _wrap(tracer: Tracer, fn, name: str, annotate):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(sp, result)
            return result
    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers; restore every original name on exit."""
    cli = importlib.import_module("laakso.cli")
    saved = []

    def install(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    try:
        for modname, attr, name, annotate in _WRAPS:
            module = importlib.import_module(modname)
            install(module, attr, _wrap(tracer, getattr(module, attr), name, annotate))

        # main builds a fresh parser on every call, so cli.parse covers
        # building it as well as parse_args
        build_parser = cli.build_parser

        def traced_build_parser():
            with tracer.span("cli.parse"):
                parser = build_parser()
            parser.parse_args = _wrap(tracer, parser.parse_args, "cli.parse", None)
            return parser

        install(cli, "build_parser", traced_build_parser)

        # render_json recurses through its module-level name: the wrapper
        # puts the original back for the duration of the outermost call,
        # so only that call gets a span and the recursion runs untraced.
        render_json = cli.render_json

        def traced_render_json(*args, **kwargs):
            cli.render_json = render_json
            try:
                with tracer.span("cli.render"):
                    return render_json(*args, **kwargs)
            finally:
                cli.render_json = traced_render_json

        install(cli, "render_json", traced_render_json)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over the spans recorded so far (one pass)."""
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    for sp, self_t in zip(tracer.spans, tracer.self_times()):
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        self_total[sp.name] = self_total.get(sp.name, 0.0) + self_t
        count[sp.name] = count.get(sp.name, 0) + 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(key, agg=sum):
        vals = [sp.counts[key] for sp in tracer.spans if key in sp.counts]
        return agg(vals) if vals else 0

    def by(name, key, value):
        return [sp for sp in tracer.spans if sp.name == name and sp.counts.get(key) == value]

    generators = ("spectra.free", "spectra.square_well", "spectra.plates")
    lines = c("lines")
    cells = c("cells")
    return {
        "cli.parse_s": t("cli.parse"),
        "cli.render_s": t("cli.render"),
        "cli.self_s": self_total.get("cli.call", 0.0),
        "cli.output_bytes": c("output_bytes"),
        "cli.calls": count.get("cli.call", 0),
        "cli.exit2": len(by("cli.call", "exit", 2)),
        "cli.exit3": len(by("cli.call", "exit", 3)),
        "spectra.free_s": t("spectra.free"),
        "spectra.square_well_s": t("spectra.square_well"),
        "spectra.plates_s": t("spectra.plates"),
        "spectra.merge_s": t("spectra.merge"),
        "spectra.enumerate_s": sum(self_total.get(n, 0.0) for n in generators),
        "spectra.lines": lines,
        "spectra.lines_per_s": lines / t(*generators) if lines else 0.0,
        "graphs.build_s": t("graphs.build"),
        "graphs.census_s": t("graphs.census"),
        "graphs.closed_form_s": t("graphs.closed_form"),
        "graphs.cells": cells,
        "graphs.vertices": c("vertices"),
        "graphs.cells_per_s": cells / t("graphs.build") if cells else 0.0,
        "solver.discretize_s": t("solver.discretize"),
        "solver.dim": c("dim"),
        "solver.nnz": c("nnz"),
        "solver.dense_s": sum(sp.duration for sp in by("solver.solve", "method", "dense")),
        "solver.shift_invert_s": sum(
            sp.duration for sp in by("solver.solve", "method", "shift-invert")),
        "solver.eigsh_s": t("solver.eigsh"),
        "solver.polish_rounds": c("polish_rounds"),
        "solver.residual_max": c("residual_max", agg=max),
        "solver.convergence_errors": len(by("solver.solve", "error", "ConvergenceError")),
        "solver.cluster_s": t("solver.cluster"),
        "solver.trace_s": t("solver.trace"),
        "zeta.periodic_s": t("zeta.periodic"),
        "zeta.periodic_calls": count.get("zeta.periodic", 0),
        "zeta.limit_half_s": t("zeta.limit_half"),
        "zeta.poles_s": t("zeta.poles"),
        "zeta.pole_errors": sum(
            1 for sp in tracer.spans
            if sp.name.startswith("zeta.") and sp.counts.get("error") == "PoleError"),
        "casimir.energy_s": t("casimir.energy"),
        "casimir.force_s": t("casimir.force"),
        "casimir.calls": count.get("casimir.force", 0),
    }


def median_metrics(per_sample: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the samples of a run."""
    return {k: statistics.median(p[k] for p in per_sample) for k in per_sample[0]}
