"""Benchmark of the `laakso` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload exact --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout (the program is imported from
`src`, nothing is installed).  Workloads: exact, numeric (see
README.md).  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it show the same numbers by name,
with the environment and any failed checks.

A run is a series of samples.  Each sample is a fresh single-threaded
interpreter (`worker.py`, LAAKSO_THREADS=1 set before import) that times
its set-up and runs every call of the workload once.  Samples are started
until the next one would end after --seconds, and there are at least
MIN_SAMPLES of them.  Taking a run's samples from several processes
averages out speed differences that last a whole process on a shared
machine.  Metrics are medians over the samples (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_SAMPLES = {0: 3, 1: 1}
TIME_LIMIT_S = 170


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _call_times(samples: list[dict], key: str) -> list[float]:
    """Each call's latency: its median over the run's samples."""
    return [statistics.median(ts) for ts in zip(*(s[key] for s in samples))]


def _metrics(samples: list[dict], trace: bool) -> dict[str, float]:
    calls = _call_times(samples, "times")
    if trace:
        metrics = spans.median_metrics([s["layers"] for s in samples])
        metrics["trace.overhead_s"] = (sum(_call_times(samples, "traced_times"))
                                       - sum(_call_times(samples, "warm_times")))
        return metrics
    return {
        "wall_s": sum(calls),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p99_ms": 1e3 * _percentile(calls, 99),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
    }


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args], env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "laakso", "cli.py")):
        sys.stderr.write("bench/run.py: run it from the root of a laakso source "
                         "checkout (src/laakso/cli.py not found)\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["LAAKSO_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    samples: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            samples.append(_worker([args.workload, str(args.seed), str(len(samples)),
                                    str(args.trace)], env, deadline))
            elapsed = time.monotonic() - start
            if (len(samples) >= MIN_SAMPLES[args.trace]
                    and elapsed * (len(samples) + 1) / len(samples) > args.seconds):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench/run.py: {exc}\n")
        return 1

    produced = _metrics(samples, bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        sys.stderr.write(f"bench/run.py: metrics not produced: {missing}\n")
        return 1
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = {k: v for s in samples for k, v in s["failures"].items()}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in samples[0]["environment"].items()))
    print(f"samples {len(samples)}  calls per sample {len(samples[0]['times'])}  "
          f"attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':28s} {failed / attempted:.6g} ratio")
    for call, problem in sorted(failures.items()):
        print(f"FAILED {call}: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
