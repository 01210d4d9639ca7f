"""The `laakso` command line: golden outputs, exit codes, formats.

Every case in GOLDEN must print exactly the bytes stored in
`tests/cli_golden/<name>.out`.  To re-record them after an intended
output change, run `PYTHONPATH=src python tests/test_cli.py`.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import bench_data
import pytest

from laakso import (
    ConvergenceError,
    JSequence,
    PlateConfig,
    Potential,
    SpectrumQuery,
    build_graph,
    discretize,
    eigenfunction_trace,
    free_spectrum,
    plates_spectrum,
    solve,
    solve_lowest,
    square_well_spectrum,
)
from laakso import cli
from laakso.zeta import _zeta_at

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden")

GOLDEN = {
    "describe_periodic": "describe --j 2,3 --periodic",
    "describe_explicit": "describe --j 2,3,5 --level 2",
    "census_free": "census --j 2 --periodic --level 3",
    "census_well": "census --j 2,3 --periodic --level 3 --region well",
    "census_plates": "census --j 5 --periodic --level 2 --region plates --plates 5,0,0.2",
    "spectrum_free_merged": "spectrum --kind free --j 2,3 --periodic --lambda-max 5e4",
    "spectrum_free_per_family":
        "spectrum --kind free --j 2,3 --periodic --lambda-max 5e4 --policy per-family",
    "spectrum_well_merged":
        "spectrum --kind square-well --j 2,3 --periodic --lambda-max 5e4",
    "spectrum_well_per_family":
        "spectrum --kind square-well --j 3 --periodic --lambda-max 5e4 --policy per-family",
    "spectrum_plates_merged": "spectrum --kind plates --plates 7,2,0.15 --lambda-max 2e4",
    "spectrum_plates_per_family":
        "spectrum --kind plates --plates 5,0,0.2 --lambda-max 2e4 --policy per-family",
    "spectrum_free_csv": "spectrum --kind free --j 2 --periodic --lambda-max 2e4 "
                         "--policy per-family --format csv",
    "spectrum_well_empty": "spectrum --kind square-well --j 2 --periodic --lambda-max 30",
    "solve_small": "solve --j 2 --periodic --level 1 --mesh 4 --count 6",
    "solve_trace_csv":
        "solve --j 2 --periodic --level 1 --mesh 3 --count 4 --trace 1 --format csv",
    # 492 kept nodes
    "solve_row_flip": "solve --j 2 --periodic --level 3 --count 8",
    "solve_row_flip_trace": "solve --j 2 --periodic --level 3 --count 8 --trace 2",
    "solve_row_flip_trace_csv":
        "solve --j 2 --periodic --level 3 --count 8 --trace 2 --format csv",
    "zeta_continued": "zeta --j 2,3 --periodic --s=-1.5,40",
    "zeta_limit": "zeta --j 3 --periodic --s 0.5",
    "casimir": "casimir --N 7 --Z 2 --X0 0.15",
}


def run(argv: str | list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv.split() if isinstance(argv, str) else argv)
    return rc, out.getvalue(), err.getvalue()


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + ".out")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    rc, out, err = run(GOLDEN[name])
    assert (rc, err) == (0, "")
    with open(_golden_path(name)) as fh:
        assert out == fh.read()


def test_golden_covers_every_subcommand():
    used = {argv.split()[0] for argv in GOLDEN.values()}
    assert used == set(cli._COMMANDS)


# Lines per chunk the spectrum writer is run with: every line its own
# chunk, pairs, an odd size, and one chunk larger than any spectrum here.
CHUNK_SIZES = (1, 2, 7, 1 << 30)


def _spectrum_json(kind, lambda_max, policy, spectrum) -> str:
    """The spectrum document as `laakso spectrum` writes it."""
    head, _, tail = cli.render_json({"kind": kind, "lambda_max": lambda_max, "lines": [],
                                     "policy": policy}).partition("[]")
    return "".join(cli._write_spectrum(spectrum, cli._JSON_LAYOUT, head, tail))


def _spectrum_cases():
    query = SpectrumQuery
    for policy in ("merged", "per-family"):
        yield "free", free_spectrum(JSequence((2, 3), periodic=True), query(3e4, policy))
        yield "square-well", square_well_spectrum(JSequence((2,), periodic=True),
                                                  query(3e4, policy))
        yield "plates", plates_spectrum(PlateConfig(7, 2, 0.15), query(3e4, policy))
    yield "square-well", square_well_spectrum(JSequence((2,), periodic=True),
                                              query(30.0))


@pytest.mark.parametrize("kind,lines", list(_spectrum_cases()))
def test_spectrum_writer_matches_render_json(monkeypatch, kind, lines):
    doc = {"kind": kind, "lambda_max": 3e4, "policy": "merged",
           "lines": [line.as_dict() for line in lines]}
    for size in CHUNK_SIZES:
        monkeypatch.setattr(cli, "_CHUNK_LINES", size)
        assert _spectrum_json(kind, 3e4, "merged", lines) == cli.render_json(doc), size


def _csv_from_records(lines) -> str:
    """The CSV as the writer printed it from line records."""
    rows = ["lambda,multiplicity,sources"]
    for line in lines:
        srcs = ";".join(f"{s.family}:{s.n}:{s.k}" for s in line.sources)
        rows.append(f"{line.lam:.17g},{line.multiplicity},{srcs}")
    return "\n".join(rows) + "\n"


def _column_cases():
    seq2, seq23 = JSequence((2,), periodic=True), JSequence((2, 3), periodic=True)
    for policy in ("merged", "per-family"):
        yield "free", policy, lambda q: free_spectrum(seq23, q), 3e4
        yield "square-well", policy, lambda q: square_well_spectrum(seq2, q), 3e4
        yield "plates", policy, lambda q: plates_spectrum(PlateConfig(7, 2, 0.15), q), 3e4
    yield "square-well", "merged", lambda q: square_well_spectrum(seq2, q), 30.0
    # the ceiling sits on a merged line of several sources: the line is
    # listed whole at its lambda and not at all just below it
    merged = free_spectrum(seq23, SpectrumQuery(3e4))
    lam = next(line.lam for line in merged if len(line.sources) >= 3)
    for ceiling in (lam, math.nextafter(lam, 0)):
        yield "free", "merged", lambda q: free_spectrum(seq23, q), ceiling
    # a one-line spectrum
    lowest = square_well_spectrum(seq2, SpectrumQuery(3e4))[0].lam
    yield "square-well", "merged", lambda q: square_well_spectrum(seq2, q), lowest


def _assert_writers_match_line_records(kind, policy, spectrum, lambda_max):
    lines = list(spectrum)
    doc = {"kind": kind, "lambda_max": lambda_max, "policy": policy,
           "lines": [line.as_dict() for line in lines]}
    assert _spectrum_json(kind, lambda_max, policy, spectrum) == cli.render_json(doc)
    chunks = list(cli._write_spectrum(spectrum, cli._CSV_LAYOUT))
    assert len(chunks) == max(1, -(-len(lines) // cli._CHUNK_LINES))
    csv = "".join(chunks)
    assert csv == _csv_from_records(lines)
    assert cli.parse_lines_csv(csv) == [
        (line.lam, line.multiplicity, [(s.family, s.n, s.k) for s in line.sources])
        for line in lines]


@pytest.mark.parametrize("kind,policy,gen,lambda_max", list(_column_cases()))
def test_spectrum_writers_match_line_records(monkeypatch, kind, policy, gen, lambda_max):
    spectrum = gen(SpectrumQuery(lambda_max, policy))
    for size in CHUNK_SIZES:
        monkeypatch.setattr(cli, "_CHUNK_LINES", size)
        _assert_writers_match_line_records(kind, policy, spectrum, lambda_max)


def test_spectrum_writers_split_chunks_at_a_merged_line(monkeypatch):
    # a line of three or more sources ends one chunk, then starts the next
    spectrum = free_spectrum(JSequence((2, 3), periodic=True), SpectrumQuery(3e4))
    i = next(i for i, line in enumerate(spectrum) if i and len(line.sources) >= 3)
    for size in (i + 1, i):
        monkeypatch.setattr(cli, "_CHUNK_LINES", size)
        _assert_writers_match_line_records("free", "merged", spectrum, 3e4)


def test_spectrum_writers_split_chunks_in_a_run_of_equal_lambdas(monkeypatch):
    # per family, lines of one lambda follow each other and the writer
    # formats that lambda once per run in a chunk; a chunk ends inside a run
    spectrum = free_spectrum(JSequence((2, 3), periodic=True),
                             SpectrumQuery(3e4, "per-family"))
    lam = spectrum.lam
    i = next(i for i in range(1, len(lam) - 1) if lam[i - 1] == lam[i] == lam[i + 1])
    for size in (i, i + 1):
        assert lam[size - 1] == lam[size]
        monkeypatch.setattr(cli, "_CHUNK_LINES", size)
        _assert_writers_match_line_records("free", "per-family", spectrum, 3e4)


class _Stdout:
    """A stdout that records each write, in order with `events`."""

    def __init__(self, events):
        self.events = events

    def write(self, text):
        self.events.append(("write", text))
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_writes_each_chunk_as_it_is_made(monkeypatch, fmt):
    argv = f"spectrum --kind free --j 2,3 --periodic --lambda-max 5e4 --format {fmt}"
    rc, whole, err = run(argv)
    assert (rc, err) == (0, "")
    events = []
    write_spectrum = cli._write_spectrum

    def traced(*args):
        for chunk in write_spectrum(*args):
            events.append(("chunk", chunk))
            yield chunk

    monkeypatch.setattr(cli, "_write_spectrum", traced)
    monkeypatch.setattr(cli, "_CHUNK_LINES", 7)
    with contextlib.redirect_stdout(_Stdout(events)):
        assert cli.main(argv.split()) == 0
    writes = [text for kind, text in events if kind == "write"]
    assert len(writes) > 1 and "".join(writes) == whole
    # every chunk is written before the next one is made
    chunks = [text for kind, text in events if kind == "chunk"]
    assert events[:2 * len(chunks)] == [e for c in chunks for e in (("chunk", c), ("write", c))]


def test_memory_error_while_streaming_exits_2(monkeypatch):
    write_spectrum = cli._write_spectrum

    def exhaust_after_first(*args):
        chunks = write_spectrum(*args)
        yield next(chunks)
        raise MemoryError("Unable to allocate 1.2 GiB")

    monkeypatch.setattr(cli, "_CHUNK_LINES", 7)
    argv = "spectrum --kind free --j 2 --periodic --lambda-max 1e4"
    _, whole, _ = run(argv)
    monkeypatch.setattr(cli, "_write_spectrum", exhaust_after_first)
    rc, out, err = run(argv)
    assert rc == 2
    assert json.loads(err) == {"error": "spectrum ran out of memory: Unable to allocate 1.2 GiB",
                               "exit": 2}
    # the first chunk was written before the error: the output is partial
    assert out and whole.startswith(out) and len(out) < len(whole)


@pytest.mark.parametrize("argv", [
    "spectrum --kind plates --j 2 --lambda-max 100",
    "spectrum --kind plates --plates 3,0,1e-200 --lambda-max 1e9",
    "spectrum --kind free --j 2 --periodic --lambda-max 1e20",
])
def test_spectrum_that_fails_creates_no_file(tmp_path, argv):
    path = tmp_path / "out.json"
    rc, out, err = run(f"{argv} --output {path}")
    assert (rc, out) == (2, "") and json.loads(err)["exit"] == 2
    assert not path.exists()


def test_bench_spectrum_calls_print_their_recorded_digests():
    # the benchmark's spectrum calls cross thousands of chunk boundaries;
    # a writer that drifts there fails here before the benchmark runs
    expected = bench_data.expected()
    spectrum = bench_data.workloads().SPECTRUM
    assert spectrum
    for argv in spectrum:
        rc, out, err = run(argv)
        assert (rc, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected[argv]["sha256"], argv


def test_bench_analytic_calls_print_their_recorded_digests():
    # zeta_R(2s) is cached per process, so run every zeta and casimir call
    # of the benchmark's pool twice, in pool order and then reversed: no
    # byte may depend on which call filled the cache
    expected = bench_data.expected()
    calls = [c for c in bench_data.workloads().analytic_pool()
             if c.split()[0] in ("zeta", "casimir")]
    assert len(calls) > 100
    _zeta_at.cache_clear()
    for argv in calls + calls[::-1]:
        rc, out, err = run(argv)
        assert rc == expected[argv]["exit"], argv
        shown, silent = (out, err) if rc == 0 else (err, out)
        assert silent == "", argv
        assert hashlib.sha256(shown.encode()).hexdigest() == expected[argv]["sha256"], argv


def test_render_json_escapes_control_characters():
    text = "".join(map(chr, range(0x20))) + '"\\ end'
    assert json.loads(cli.render_json({"s": text})) == {"s": text}


def test_error_json_with_a_control_character_parses():
    rc, out, err = run(["describe", "--j", "2", "--periodic", "--output", "/nonexistent/a\nb"])
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["exit"] == 2 and "cannot write --output /nonexistent/a\nb: " in doc["error"]


def test_memory_error_exits_2(monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.3 TiB")

    monkeypatch.setattr(cli, "free_spectrum", exhaust)
    rc, out, err = run("spectrum --kind free --j 2 --periodic --lambda-max 1e16")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "spectrum ran out of memory: Unable to allocate 7.3 TiB",
                               "exit": 2}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_cli_builds_no_line_records(monkeypatch, fmt):
    import laakso.spectra

    def refuse(*args, **kwargs):
        raise AssertionError("a line record was built")

    for name in ("SpectralLine", "LineSource"):
        monkeypatch.setattr(laakso.spectra, name, refuse)
    for argv in ("spectrum --kind free --j 2,3 --periodic --lambda-max 5e4",
                 "spectrum --kind square-well --j 3 --periodic --lambda-max 5e4 "
                 "--policy per-family",
                 "spectrum --kind plates --plates 7,2,0.15 --lambda-max 2e4"):
        rc, out, err = run(f"{argv} --format {fmt}")
        assert (rc, err) == (0, "") and out


@pytest.mark.parametrize("argv", [
    "spectrum --kind free --j 2 --periodic --lambda-max 100",
    "spectrum --kind free --j 2 --periodic --lambda-max 100 --format csv",
    "solve --j 2 --periodic --level 1 --mesh 3 --count 4 --trace 1 --format csv",
])
def test_unwritable_output_exits_2(tmp_path, argv):
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        rc, out, err = run(f"{argv} --output {path}")
        assert (rc, out) == (2, "")
        doc = json.loads(err)
        assert doc["exit"] == 2 and f"cannot write --output {path}: " in doc["error"]


@pytest.mark.parametrize("s", ["400", "-400", "1e300", "-1e300", "-400,3", "-100.25"])
def test_zeta_outside_double_range_exits_2(s):
    rc, out, err = run(f"zeta --j 2 --periodic --s={s}")
    assert (rc, out) == (2, "")
    assert "is outside the range the closed form can evaluate in double precision" \
        in json.loads(err)["error"]


def test_spectrum_csv_round_trip():
    rc, out, _ = run("spectrum --kind square-well --j 2,3 --periodic "
                     "--lambda-max 2e4 --format csv")
    assert rc == 0
    rows = cli.parse_lines_csv(out)
    lines = square_well_spectrum(JSequence((2, 3), periodic=True), SpectrumQuery(2e4))
    assert rows == [(line.lam, line.multiplicity,
                     [(s.family, s.n, s.k) for s in line.sources]) for line in lines]
    rc, out, _ = run("spectrum --kind square-well --j 2,3 --periodic --lambda-max 2e4")
    assert [(row["lambda"], row["multiplicity"]) for row in json.loads(out)["lines"]] == \
        [(lam, mult) for lam, mult, _ in rows]


@pytest.mark.parametrize("argv", [
    "describe --j 2,x --periodic",                       # unparsable --j
    "census --j 1 --periodic --level 2",                 # j_n < 2
    "spectrum --kind free --lambda-max 100",             # missing --j
    "spectrum --kind free --j 2 --periodic --lambda-max 0",
    "spectrum --kind free --j 2 --periodic --lambda-max inf",
    "spectrum --kind free --j 2 --periodic --lambda-max 1e300",  # keys beyond int64
    "census --j 2 --periodic --level 2 --region plates",  # missing --plates
    "zeta --j 2 --periodic --s 1",                       # on the pole lattice
    "zeta --j 2 --periodic --s 0.5",                     # j = 2 has no s -> 1/2 limit
    "casimir --N 5 --Z 1 --X0 0.2",                      # N - (Z+1) odd
    "solve --j 2 --periodic --level 1 --count 2 --trace 5",   # trace index >= count
    "solve --j 2 --periodic --level 1 --count 2 --trace -1",
    "solve --j 2 --periodic --level 1 --count 6 --cluster-tol nan",
    "solve --j 2 --periodic --level 1 --count 6 --cluster-tol -0.1",
    "solve --j 2 --periodic --level 1 --count 6 --cluster-tol nan --trace 0",
    "solve --j 2 --periodic --level 1 --count 6 --cluster-tol -1 --trace 0",
    "describe --j 2 --periodic --level 14285",      # I_n has 4301 digits
])
def test_invalid_configuration_exits_2(argv):
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["exit"] == 2


def test_describe_level_past_the_int_string_limit_exits_2():
    # I_n = 2^14285 has 4301 digits, one over Python's default limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run("describe --j 2 --periodic --level 14284")[0] == 0
        rc, out, err = run("describe --j 2 --periodic --level 14285")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "--level 14285 prints an integer of 4301 digits, over Python's limit "
                 "of 4300 digits for converting an integer to a string",
        "exit": 2}


@pytest.mark.parametrize("argv", [
    "spectrum --kind plates --plates 5,0,0.2 --j 3 --lambda-max 100",
    "spectrum --kind plates --plates 5,0,0.2 --periodic --lambda-max 100",
    "spectrum --kind free --j 2 --periodic --plates 5,0,0.2 --lambda-max 100",
    "spectrum --kind square-well --j 2 --periodic --plates 5,0,0.2 --lambda-max 100",
    "census --j 5 --periodic --level 2 --plates 5,0,0.2",
    "census --j 5 --periodic --level 2 --region well --plates 5,0,0.2",
])
def test_ignored_flags_exit_2(argv):
    rc, out, err = run(argv)
    assert (rc, out) == (2, "")
    assert "--plates" in json.loads(err)["error"] or "--j" in json.loads(err)["error"]


@pytest.mark.parametrize("s,message", [
    ("nan", "--s must be finite, got 'nan'"),
    ("inf", "--s must be finite, got 'inf'"),
    ("-inf", "--s must be finite, got '-inf'"),
    ("2,nan", "--s must be finite, got '2,nan'"),
    ("1,2,3", "--s takes 're' or 're,im', got '1,2,3'"),
    ("x", "--s takes 're' or 're,im', got 'x'"),
    ("1,x", "--s takes 're' or 're,im', got '1,x'"),
])
def test_zeta_argument_errors(s, message):
    rc, out, err = run(f"zeta --j 2 --periodic --s={s}")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": message, "exit": 2}


@pytest.mark.parametrize("command", [
    "spectrum --kind plates --lambda-max 100",
    "census --j 5 --periodic --level 2 --region plates",
    "solve --j 5 --periodic --level 1 --count 2",
])
@pytest.mark.parametrize("plates", ["5,x,0.2", "5,0,abc", "5.0,0,0.2", "5,0", "5,0,0.2,1"])
def test_plates_argument_errors(command, plates):
    rc, out, err = run(f"{command} --plates {plates}")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": f"--plates takes N,Z,X0 (integers N and Z, a number X0), got {plates!r}",
        "exit": 2}


@pytest.mark.parametrize("hbar", ["nan", "inf", "-1", "0"])
def test_casimir_hbar_must_be_finite_and_positive(hbar):
    rc, out, err = run(f"casimir --N 7 --Z 2 --X0 0.15 --hbar {hbar}")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"].startswith("hbar must be finite and positive")


@pytest.mark.parametrize("args", ["--X0 1e-200", "--X0 5e-324", "--X0 0.2 --hbar 1e308"])
def test_casimir_outside_double_range_exits_2(args):
    # x0**2 underflows to 0, a / x0 overflows, hbar * pi overflows
    rc, out, err = run(f"casimir --N 4 --Z 1 {args}")
    assert (rc, out) == (2, "")
    doc = json.loads(err)
    assert doc["exit"] == 2
    assert doc["error"].startswith("(N, Z, x0, hbar) = (4, 1, ")
    assert "is outside double range" in doc["error"]


def test_plate_spectrum_outside_double_range_exits_2():
    # x0**2 underflows to 0, and lambda = pi^2 q / x0^2 divided by it
    rc, out, err = run("spectrum --kind plates --plates 3,0,1e-200 --lambda-max 1e9")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "(N, Z, x0, hbar) = (3, 0, 1e-200, 1.0) is outside double range: "
                 "the interior scale is 0.0",
        "exit": 2}


@pytest.mark.parametrize("x0", ["1e-200", "5e-324"])
def test_plate_solve_outside_double_range_exits_2(x0):
    # the mass-scaled stiffness of the interior cells overflows (1e-200) or
    # divides by a zero step (5e-324); it used to print NaN eigenvalues
    rc, out, err = run(f"solve --j 5 --periodic --level 1 --plates 5,0,{x0} --count 2")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "reduce_rows: T on 41 path nodes (mesh 7) is outside double range",
        "exit": 2}


# One call through laakso.cli.main in a new interpreter; prints the exit code,
# the scipy, mpmath, numpy.f2py and numpy.ma modules loaded by then, and the
# sha256 of its stdout.
_FRESH_CALL = """\
import contextlib, hashlib, io, json, sys
import laakso.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = laakso.cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] in ("scipy", "mpmath")
                             or m.split(".")[:2] in (["numpy", "f2py"], ["numpy", "ma"])),
                  hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def _fresh_call(argv: str) -> tuple[int, list[str], str]:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", _FRESH_CALL, *argv.split()],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120, check=True)
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [
    "describe --j 2 --periodic",
    "zeta --j 2 --periodic --s 2",
    "casimir --N 5 --Z 0 --X0 0.2",
    "spectrum --kind free --j 2 --periodic --lambda-max 100",
    "census --j 2 --periodic --level 2",
])
def test_commands_that_never_solve_load_no_scipy(argv):
    # nor numpy.f2py or numpy.ma; and only zeta loads mpmath
    rc, loaded, _ = _fresh_call(argv)
    assert rc == 0
    assert sorted({m.split(".")[0] for m in loaded}) == (
        ["mpmath"] if argv.startswith("zeta") else []), loaded


def test_first_solve_loads_what_every_solve_needs():
    # the smallest solve, the bench's warm-up, loads dstemr as every other
    # solve does, so no later solve imports inside its own time; a solve
    # loads LAPACK's extension alone, not the scipy packages (and what their
    # imports pull in), nor numpy.ma, which np.unique without return_* loads,
    # nor mpmath
    for argv in ("solve --j 2 --periodic --level 1 --count 2",
                 "solve --j 2 --periodic --level 3 --count 8"):
        rc, loaded, _ = _fresh_call(argv)
        assert rc == 0
        assert "scipy.linalg._flapack" in loaded
        assert not {"scipy.linalg", "scipy.sparse", "scipy._lib._array_api",
                    "numpy.f2py", "numpy.ma", "mpmath"} & set(loaded), argv


def test_continued_zeta_in_a_fresh_process():
    # Re 2s <= 1 continues zeta_R through mpmath, which zeta.py imports
    # only inside that branch
    argv = "zeta --j 2 --periodic --s=-1.5,40"
    rc, loaded, digest = _fresh_call(argv)
    assert rc == 0 and "mpmath" in loaded
    assert digest == bench_data.expected()[argv]["sha256"]


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_back_to_back_calls_share_no_state():
    rc, out, _ = run("casimir --N 7 --Z 2 --X0 0.15 --hbar 2.5")
    assert rc == 0 and json.loads(out)["hbar"] == 2.5
    rc, out, _ = run("casimir --N 7 --Z 2 --X0 0.15")
    assert rc == 0 and json.loads(out)["hbar"] == 1.0

    rc, out, _ = run("solve --j 2 --periodic --level 1 --count 4 --trace 1 --format csv")
    assert rc == 0 and out.startswith("x,row,value\n")
    rc, out, _ = run("solve --j 2 --periodic --level 1 --count 4")
    assert rc == 0 and json.loads(out)["eigenvalues"]

    with pytest.raises(SystemExit) as exc:
        run("casimir --N 7 --Z 2")                         # --X0 missing
    assert exc.value.code == 2
    rc, out, err = run("casimir --N 7 --Z 2 --X0 0.15")
    assert (rc, err) == (0, "")
    with open(_golden_path("casimir")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("seq,n,method", [((2,), 1, "row-flip"), ((2,), 3, "row-flip")])
def test_trace_writer_matches_render_json(seq, n, method):
    graph = build_graph(JSequence(seq, periodic=True), n)
    op, result = solve(graph, 5, Potential("coulomb"), 6)
    assert result.info["method"] == method
    trace = eigenfunction_trace(op, result, 4)
    eigenvalue = float(result.eigenvalues[4])
    doc = {"eigenvalue": eigenvalue,
           "trace": [{"x": x, "row": row, "value": val} for x, row, val in trace]}
    assert cli._trace_to_json(eigenvalue, trace) == cli.render_json(doc)


@pytest.mark.parametrize("x0", ["1e-150", "1e-100"])
def test_plate_widths_near_double_range_fail_cleanly(x0):
    # entries near 1e302 are finite; the row-flip segments keep the huge
    # ones apart, so the solve meets the contract
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        rc, out, err = run(f"solve --j 5 --periodic --level 1 --plates 5,0,{x0} --count 2")
    assert (rc, err) == (0, "")
    residual = json.loads(out)["residual_max"]
    assert math.isfinite(residual) and residual <= 1e-8
    # the dense oracle misses it, and squaring its residual entries would
    # overflow: the rescaled norm reports a finite residual, not inf
    graph = build_graph(JSequence((5,), periodic=True), 1, plates=PlateConfig(5, 0, float(x0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            solve_lowest(discretize(graph, 7, Potential("free")), 2)
    residual = float(str(exc.value).split()[3])
    assert math.isfinite(residual) and residual > 1e-8


def test_pole_error_message():
    rc, _, err = run("zeta --j 2 --periodic --s 1")
    assert rc == 2
    assert "pole lattice" in json.loads(err)["error"]


def test_convergence_error_exits_3(monkeypatch):
    def fail(graph, mesh, potential, count):
        raise ConvergenceError("residual 1e-6 exceeds the contract")

    monkeypatch.setattr(cli, "solve", fail)
    rc, out, err = run("solve --j 2 --periodic --level 1 --count 2")
    assert (rc, out) == (3, "")
    assert json.loads(err) == {"error": "residual 1e-6 exceeds the contract", "exit": 3}


@pytest.mark.parametrize("level", [1, 6])
@pytest.mark.parametrize("trace", ["", " --trace 1"])
def test_solve_assembles_no_matrix(monkeypatch, trace, level):
    import laakso.solver

    def forbidden(*args, **kwargs):
        raise AssertionError("the Hamiltonian was assembled")

    for module, name in [(cli, "discretize"), (laakso.solver, "discretize"),
                         (cli, "solve_lowest"), (laakso.solver, "solve_lowest"),
                         (laakso.solver, "eigsh")]:
        monkeypatch.setattr(module, name, forbidden)
    rc, out, err = run(f"solve --j 2 --periodic --level {level} --potential square_well "
                       "--count 5" + trace)
    assert (rc, err) == (0, "")
    assert ("trace" if trace else "dim") in json.loads(out)


def test_level_8_square_well_solve():
    # 37 s and a residual 2x under the contract on the assembled path; the
    # row-flip reduction takes about 0.2 s
    t0 = time.perf_counter()
    rc, out, err = run("solve --j 2 --periodic --level 8 --potential square_well --count 20")
    elapsed = time.perf_counter() - t0
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["dim"] == 245888
    assert doc["residual_max"] <= 1e-8
    assert len(doc["eigenvalues"]) == 20
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [
    "describe --j 2 --periodic",
    "census --j 2 --periodic --level 2",
    "zeta --j 2 --periodic --s 2",
    "casimir --N 5 --Z 0 --X0 0.2",
    "solve --j 2 --periodic --level 1 --count 2",
])
def test_csv_rejected_where_unsupported(argv):
    rc, out, err = run(argv + " --format csv")
    assert (rc, out) == (2, "")
    assert "--format csv" in json.loads(err)["error"]


def record():
    """Rewrite every golden file from the current program."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in sorted(GOLDEN.items()):
        rc, out, err = run(argv)
        if rc != 0:
            raise SystemExit(f"{argv!r} exited {rc}: {err}")
        with open(_golden_path(name), "w") as fh:
            fh.write(out)


if __name__ == "__main__":
    sys.exit(record())
