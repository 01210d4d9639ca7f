"""The command line's two parse routes: `cli._parse` for well-formed argv,
argparse for everything else.

`_parse` must make the namespace argparse makes, or hand the argv on;
either way `main` prints the bytes the argparse route prints.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import bench_data
import pytest
from test_cli import GOLDEN

from laakso import cli

# one small well-formed call per subcommand, the base of the malformed ones
BASE = {
    "describe": "describe --j 2 --periodic --level 2",
    "census": "census --j 2 --periodic --level 2",
    "spectrum": "spectrum --kind free --j 2 --periodic --lambda-max 100",
    "solve": "solve --j 2 --periodic --level 1 --count 2",
    "zeta": "zeta --j 2 --periodic --s 2",
    "casimir": "casimir --N 5 --Z 0 --X0 0.2",
}


def _bench_calls() -> list[list[str]]:
    wl = bench_data.workloads()
    return [c.split() for c in wl.all_calls() + list(wl.WARMUP.values())]


def _without(argv: list[str], flag: str) -> list[str]:
    """`argv` with `flag` and the value after it left out."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _malformed(command: str) -> list[list[str]]:
    """Calls `_parse` must hand to argparse."""
    base = BASE[command].split()
    calls = [base + extra for extra in (
        ["--form", "json"], ["--outp", "-"],                # abbreviations
        ["-o", "-"], ["-h"], ["--help"], ["--"], ["--", "x"], ["x"],
        ["--bogus", "1"], ["--bogus=1"], ["--format"],      # unknown; missing value
        ["--level", "-1"], ["--s", "-1.5"], ["--output", "-"], ["--count", "-3"],
        ["--j="], ["--s="], ["--output="], ["--periodic=1"], ["--periodic="],
    )] + [[command, "--help"], [command, "-h"], [command]]
    for f in cli._SUBCOMMANDS[command].flags:
        if f.type is not None:
            calls += [base + [f.flag, "x"], base + [f"{f.flag}=1.5x"]]
        if f.type is int:
            calls.append(base + [f.flag, "1.5"])
        if f.choices is not None:
            calls += [base + [f.flag, "bogus"], base + [f"{f.flag}=bogus"]]
        if f.required:
            calls.append(_without(base, f.flag))
    return calls


def _well_formed_variants(command: str) -> list[list[str]]:
    """The base call with every value given as --flag=value, with defaults
    given explicitly, and with a flag given twice."""
    base = BASE[command].split()
    joined = [base[0]]
    rest = iter(base[1:])
    for arg in rest:
        f = cli._LONG_FLAGS[command][0][arg]
        joined.append(arg if f.store_true else f"{arg}={next(rest)}")
    return [joined, base + ["--output=-", "--format", "json"],
            base + ["--format", "csv", "--format", "json"], base + base[1:]]


MALFORMED = [argv for command in BASE for argv in _malformed(command)]
CALLS = (_bench_calls() + [g.split() for g in GOLDEN.values()]
         + [argv for command in BASE for argv in _well_formed_variants(command)]
         + MALFORMED + [[], ["bogus"], ["-h"], ["--help"], ["--j", "2"]])


def _argparse_vars(argv: list[str]) -> dict | None:
    """argparse's namespace as a dict, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def _main(argv) -> tuple[int, str, str]:
    """`cli.main(argv)`: its exit code, stdout and stderr, where an
    argparse exit counts as returning its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_parse_makes_argparses_namespace_or_hands_over():
    fast = 0
    for argv in CALLS:
        args = cli._parse(argv)
        if args is not None:
            fast += 1
            assert vars(args) == _argparse_vars(argv), argv
    assert fast > len(_bench_calls())


def test_parse_takes_every_bench_call():
    # the route the benchmark measures is the fast one
    for argv in _bench_calls():
        assert cli._parse(argv) is not None, argv


def test_malformed_calls_go_to_argparse():
    for argv in MALFORMED:
        assert cli._parse(argv) is None, argv


def test_main_prints_what_the_argparse_route_prints(monkeypatch):
    fast = [_main(argv) for argv in CALLS]
    monkeypatch.setattr(cli, "_parse", lambda argv: None)
    for argv, got in zip(CALLS, fast):
        assert got == _main(argv), argv


def test_help_pages_and_usage_errors_are_argparses():
    rc, out, err = _main(["zeta", "--help"])
    assert (rc, err) == (0, "") and out.startswith("usage: laakso zeta [-h] --j J")
    rc, out, err = _main(["casimir", "--N", "7", "--Z", "2"])
    assert (rc, out) == (2, "")
    assert err.endswith("laakso casimir: error: the following arguments are required: --X0\n")


@pytest.mark.parametrize("argv,fast", [
    ("zeta --j 2,3 --periodic --s=-1.5,40", True),
    ("casimir --N 7 --Z 2 --X0 0.15", True),
    ("casimir --N 7 --Z 2", False),
    ("describe --j 2 --periodic --level", False),
])
def test_script_entry_point_reads_sys_argv(monkeypatch, argv, fast):
    expected = _main(argv.split())
    monkeypatch.setattr(sys, "argv", ["laakso", *argv.split()])
    if fast:        # the installed script takes the fast route too
        monkeypatch.setattr(cli, "_parser", None)
    assert _main(None) == expected


# Well-formed calls in a new interpreter, then a malformed one: whether
# argparse is loaded after each, and the malformed call's exit code.
_ARGPARSE_LOADED = """\
import contextlib, io, json, sys
import laakso.cli
loaded = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in sys.argv[1:]:
        try:
            rc = laakso.cli.main(argv.split())
        except SystemExit as exc:
            rc = exc.code
        loaded.append([rc, "argparse" in sys.modules])
print(json.dumps(loaded))
"""


def test_well_formed_calls_never_load_argparse():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    calls = [BASE["zeta"], BASE["casimir"], BASE["describe"], "casimir --N 7 --Z 2"]
    proc = subprocess.run([sys.executable, "-c", _ARGPARSE_LOADED, *calls],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == [[0, False], [0, False], [0, False], [2, True]]

