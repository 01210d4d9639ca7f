"""Run one benchmark workload inside a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED INDEX TRACE

`run.py` starts this with LAAKSO_THREADS=1 and `src` on PYTHONPATH, once
per sample of a run (INDEX counts them), and reads the JSON object it
prints.  The worker times its set-up (`import laakso.cli` plus one tiny
call of each subcommand the workload uses), then runs every call of the
workload once in an order drawn from SEED and INDEX, and checks every
output.  With TRACE=1 it then runs the calls once more with the span
wrappers installed and once more without, so the tracing overhead is
measured in the same process between two equally warm passes.

Each call runs in-process through `laakso.cli.main`, after
`gc.collect()`, with stdout and stderr captured in memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import time

import checks
import spans
import workloads

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def execute(main, argv: list[str], tracer: spans.Tracer | None = None
            ) -> tuple[float, int, str, str]:
    """One timed CLI call: (seconds, exit code, stdout, stderr).

    With a tracer, the call gets a `cli.call` span, the root of the
    spans the wrapped functions record inside it.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (tracer.span("cli.call") if tracer else contextlib.nullcontext()) as sp:
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:     # argparse exits on a bad command line
            rc = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
    if sp is not None:
        sp.counts["exit"] = rc
        sp.counts["output_bytes"] = len(out.getvalue())
    return elapsed, rc, out.getvalue(), err.getvalue()


def setup(workload_calls: list[list[str]]) -> float:
    """Seconds to import the CLI and make one tiny call per subcommand."""
    t0 = time.perf_counter()
    import laakso.cli

    for argv in workloads.warmups(workload_calls):
        rc = execute(laakso.cli.main, argv)[1]
        if rc != 0:
            raise RuntimeError(f"warm-up call {' '.join(argv)!r} exited {rc}")
    return time.perf_counter() - t0


def _run_pass(workload_calls: list[list[str]], order: list[int],
              checker: checks.Checker, tracer: spans.Tracer | None = None
              ) -> tuple[list[float], int, dict[str, str]]:
    """Run every call once, in `order`; check the outputs after the pass.

    Returns each call's seconds (indexed like `workload_calls`), the
    number of calls whose check failed, and one reason per failed call.
    """
    import laakso.cli

    results = []
    with spans.patched(tracer) if tracer else contextlib.nullcontext():
        for i in order:
            results.append((i, execute(laakso.cli.main, workload_calls[i], tracer)))
    times = [0.0] * len(workload_calls)
    failed, failures = 0, {}
    for i, (elapsed, rc, out, err) in results:
        times[i] = elapsed
        problem = checker.check(workload_calls[i], rc, out, err)
        if problem is not None:
            failed += 1
            failures.setdefault(" ".join(workload_calls[i]), problem)
    return times, failed, failures


def measure(workload_calls: list[list[str]], order_seed: str, trace: bool,
            checker: checks.Checker) -> dict:
    """One plain pass over the calls; with `trace`, then a traced pass and
    a second plain pass, which is as warm as the traced one and is the
    base of the tracing overhead."""
    # Objects alive after set-up (the imported modules) move to the
    # permanent generation, so the gc.collect() before each call only
    # scans what the calls themselves leave behind.
    gc.collect()
    gc.freeze()
    order = list(range(len(workload_calls)))
    random.Random(order_seed).shuffle(order)
    passes = [("times", None)]
    if trace:
        passes += [("traced_times", spans.Tracer()), ("warm_times", None)]
    result = {"attempted": 0, "failed": 0, "failures": {}}
    for key, tracer in passes:
        times, failed, failures = _run_pass(workload_calls, order, checker, tracer)
        result[key] = times
        result["attempted"] += len(order)
        result["failed"] += failed
        result["failures"].update(failures)
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "LAAKSO_THREADS": os.environ.get("LAAKSO_THREADS"),
    }


def main(args: list[str]) -> dict:
    workload, seed, index, trace = args[0], int(args[1]), int(args[2]), args[3] == "1"
    workload_calls = workloads.calls(workload, seed)
    setup_s = setup(workload_calls)
    with open(EXPECTED) as fh:
        checker = checks.Checker(json.load(fh))
    result = measure(workload_calls, f"{seed}-{index}", trace, checker)
    result["setup_s"] = setup_s
    result["environment"] = environment()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
