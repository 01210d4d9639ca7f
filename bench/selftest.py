"""Self-test of the benchmark at tiny sizes (about 20 s).

    python3 bench/selftest.py

Run from the root of the checkout.  It checks that run.py emits every
metric BENCHMARK.json lists, that a wrong expected output counts as a
failed call, that bypassed layers read 0, and that the traced run leaves
every module it patches as it found it.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["LAAKSO_THREADS"] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CALLS = workloads.calls("selftest", 1)


def _expected() -> dict:
    with open(worker.EXPECTED) as fh:
        return json.load(fh)


def test_every_metric_is_emitted():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "selftest",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert list(result["metrics"]) == [m["name"] for m in spec[key]], result
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_expected_output_counts_as_failure():
    expected = _expected()
    census = " ".join(next(a for a in CALLS if a[0] == "census"))
    well = " ".join(next(a for a in CALLS if "square_well" in a))
    expected[census]["sha256"] = "0" * 64
    expected[well]["eigenvalues"][0] *= 1 + 1e-4
    result = worker.measure(CALLS, "1", False, checks.Checker(expected))
    assert result["failed"] == 2 and result["attempted"] == len(CALLS), result
    assert set(result["failures"]) == {census, well}, result["failures"]


def test_bypassed_layers_read_zero():
    calls = [a for a in CALLS if a[0] == "spectrum"]
    metrics = worker.measure(calls, "1", True, checks.Checker(_expected()))["layers"]
    assert metrics["spectra.lines"] > 0 and metrics["spectra.free_s"] > 0, metrics
    for name, value in metrics.items():
        if name.split(".")[0] in ("graphs", "solver", "zeta", "casimir"):
            assert value == 0, (name, value)


def test_traced_run_restores_every_name():
    import laakso.casimir
    import laakso.cli
    import laakso.graphs
    import laakso.solver
    import laakso.spectra
    import laakso.zeta

    modules = [laakso.cli, laakso.spectra, laakso.solver, laakso.graphs,
               laakso.zeta, laakso.casimir]
    before = [dict(vars(m)) for m in modules]
    result = worker.measure(CALLS, "1", True, checks.Checker(_expected()))
    assert result["failed"] == 0, result["failures"]
    assert result["layers"]["solver.eigsh_s"] > 0, result["layers"]
    for module, names in zip(modules, before):
        after = vars(module)
        assert after.keys() == names.keys(), module.__name__
        changed = [k for k in names if after[k] is not names[k]]
        assert not changed, (module.__name__, changed)


def main() -> int:
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                print(f"FAIL {name}: {exc}")
                return 1
            print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
