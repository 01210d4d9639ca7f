"""Record the expected output of every benchmark call into expected.json.

    python3 bench/record.py

Run it only on a commit whose outputs are known to be right (it was run
on the seed commit).  A change that alters output bytes on purpose must
say so and re-record; otherwise a changed digest is a failed call.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["LAAKSO_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main():
    import laakso.cli

    expected = {}
    for call in workloads.all_calls():
        argv = call.split()
        _, rc, out, err = worker.execute(laakso.cli.main, argv)
        expected[call] = checks.record(argv, rc, out, err)
        print(f"exit {rc}  {call}", file=sys.stderr)
    with open(worker.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
