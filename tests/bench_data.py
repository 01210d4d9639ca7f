"""The benchmark's call lists and recorded outputs, read from `bench/`."""

import importlib.util
import json
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def workloads():
    """`bench/workloads.py` as a module, loaded without writing bytecode
    into `bench/`."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def expected() -> dict:
    """`bench/expected.json`: each call's exit code and output sha256."""
    with open(os.path.join(BENCH, "expected.json")) as fh:
        return json.load(fh)
