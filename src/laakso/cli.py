"""Command-line front end.

Subcommands: describe, census, spectrum, solve, zeta, casimir.  Results
are deterministic: JSON keys are sorted, floats are printed with 17
significant digits, and identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 invalid configuration (or a command
that ran out of memory), 3 solver failure.

`spectrum` prints its JSON and CSV through one column writer.  It yields
a bounded chunk of lines at a time, made straight from the spectrum's
columns with no line records and no Python code per line, and formats
each distinct k, multiplicity and lambda once.  The spectrum is built,
and every option checked, before the first chunk; each chunk is written
as soon as it is made, so the text held at once is one chunk, not the
document.

Each chunk's lambdas are printed, as `"%.17g" %` prints them, by one
array kernel, `_format_17g`.  A value 1 <= v < 2^53 (every lambda but 0)
is exactly m / 2^s with an integer m < 2^53.  Its decimal exponent
E = floor(log10 v) comes from a search of the exact float powers 10^0 ..
10^16, and its 17 significant digits are m 5^(16-E) / 2^(s-16+E) rounded
half to even, in integer arithmetic on the exact product (under 2^91,
held in two uint64 limbs).  That is the correctly rounded decimal, which
is what Python's formatter prints, so the text is the same byte for byte
(a carry to 10^17 moves E up one).  The digits come from a table of
4-digit groups, with the point after digit E and the fraction's trailing
zeros cut, and the point too when nothing follows it, as %g does.  Every
other value (0, -0, negatives, NaN, infinities, v < 1, v >= 2^53) goes to
Python's formatter.  Every uint64 operation takes uint64 operands: numpy
1.x promotes int64 with uint64 to float64, which would lose bits.  The
tables are built on first use.

A command line is parsed on one of two routes, both read from one table
of each subcommand's flags, `_SUBCOMMANDS`.  `_parse` takes a
well-formed one: the subcommand, then only its exact long flags, each as
`--flag value` (a value not starting with '-') or `--flag=value`, every
value converting with its flag's type and lying in its choices, and
every required flag given.  It makes the namespace argparse would make,
at a small fraction of argparse's cost, which was most of a small call
such as `zeta` or `casimir`.  Every other command line (an
abbreviation, `-o`, `-h`, `--`, an unknown flag, a missing, empty or bad
value) goes unchanged to the argparse parser `build_parser` makes from
the same table.  So every usage error (exit 2) and every help page is
argparse's own text, not a copy that could drift from it.  argparse is
imported, and its parser built, only when a call needs it.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from . import (
    ConvergenceError,
    JSequence,
    MERGED,
    PER_FAMILY,
    PlateConfig,
    Potential,
    PoleError,
    SpectrumQuery,
    build_graph,
    casimir_force,
    census_closed_form,
    cluster,
    column_boundaries,
    discretize,      # not called here; bench/spans.py wraps it by name
    eigenfunction_trace,
    free_spectrum,
    hausdorff_dimension,
    interior_shape_counts,
    level_products,
    plate_zeta_energy,
    plates_spectrum,
    shape_census,
    solve,
    solve_lowest,    # not called here; bench/spans.py wraps it by name
    spectral_dimension,
    spectral_zeta_periodic,
    square_well_spectrum,
    well_geometry,
    zeta_limit_half,
    zeta_poles,
)

if TYPE_CHECKING:
    import argparse


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization

# RFC 8259: a JSON string escapes the quote, the backslash and U+0000-U+001F
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"',
                          **{chr(c): f"\\u{c:04x}" for c in range(0x20)}})


def _json_str(s: str) -> str:
    return f'"{s.translate(_ESCAPES)}"'


# The text of a scalar, by its exact type
_SCALAR_JSON = {
    float: "%.17g".__mod__,
    int: int.__repr__,
    str: _json_str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar_json(obj) -> str | None:
    """The text of a scalar, or None for a dict, list or tuple."""
    text = _SCALAR_JSON.get(type(obj))
    if text is not None:
        return text(obj)
    # a subclass, such as np.float64: checked in the recursive emitter's order
    if isinstance(obj, (dict, list, tuple)):
        return None
    if isinstance(obj, int):        # bool cannot be subclassed
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return _json_str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(obj, nl: str, parts: list):
    """Append the text of the dict, list or tuple `obj` to `parts`; `nl`
    is a newline and the indent of the line `obj` starts on."""
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(obj, dict):
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            text = _scalar_json(value)
            if text is None:
                parts.append(f'{sep}"{key}": ')
                _emit(value, inner, parts)
            else:
                parts.append(f'{sep}"{key}": {text}')
            sep = "," + inner
        parts.append(nl + "}")
        return
    sep = "[" + inner
    for value in obj:
        text = _scalar_json(value)
        if text is None:
            parts.append(sep)
            _emit(value, inner, parts)
        else:
            parts.append(sep + text)
        sep = "," + inner
    parts.append(nl + "]")


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter: sorted keys, floats at 17 significant digits.

    One pass appends every piece of text to one list, joined once.
    """
    text = _scalar_json(obj)
    if text is not None:
        return text
    parts = []
    _emit(obj, "\n" + "  " * indent, parts)
    return "".join(parts)


def _write(chunks, path: str | None):
    """Write the strings `chunks` to stdout (`path` None or '-') or to the
    file `path`, each as soon as it is made, and end with a newline.

    An error raised while writing, or while a later chunk is being made,
    can leave the output partly written.
    """
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w")) as fh:
        text = ""
        for text in chunks:
            fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# The spectrum writer formats this many lines at a time, so the pieces it
# holds at once are a bounded slice of the document.
_CHUNK_LINES = 4096

_U64 = np.uint64


@functools.cache
def _17g_tables():
    """The exact float powers 10^0..10^16, 5^0..5^16 and 10^0..10^17 as
    uint64, and every 4-digit group as text: rows 0..9999 as printed,
    rows 10000..19999 with their trailing zeros cut (so 0 is empty)."""
    digits = np.indices((10,) * 4, dtype=np.uint32).reshape(4, -1)    # of 0..9999
    text = np.empty((2, 10**4, 4), dtype=np.uint32)
    text[0] = (digits + np.uint32(ord("0"))).T
    text[1] = text[0]
    trailing = True
    for i in (3, 2, 1, 0):
        trailing = trailing & (digits[i] == 0)
        text[1, trailing, i] = 0
    return (np.array([float(10**e) for e in range(17)]),
            np.array([5**e for e in range(17)], dtype=_U64),
            np.array([10**e for e in range(18)], dtype=_U64),
            text.reshape(-1, 4).view("U4")[:, 0])


def _format_17g(x: np.ndarray) -> list[str]:
    """`["%.17g" % v for v in x.tolist()]` for a float64 array x.

    Values 1 <= v < 2^53 are printed exactly with whole-array integer
    arithmetic (see the module docstring); every other value goes to
    Python's formatter.
    """
    powers, five, tens, groups = _17g_tables()
    one, low32 = _U64(1), _U64(2**32 - 1)
    fast = (x >= 1.0) & (x < 2.0**53)
    v = x[fast]
    bits = v.view(_U64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)    # v = m / 2^s, s = 1075 - exponent
    e = np.searchsorted(powers, v, side="right") - 1     # floor(log10 v): 0..15
    # The 17 digits: d = v 10^(16-e) = m 5^(16-e) / 2^t rounded half to
    # even, t = s - 16 + e, with the product (under 2^91) held as H 2^32 + L.
    t = e + 1059 - (bits >> _U64(52)).astype(np.int64)       # -1..36
    f = five[16 - e]
    m0 = m & low32
    low = m0 * (f & low32)
    H = (m >> _U64(32)) * f + m0 * (f >> _U64(32)) + (low >> _U64(32))
    L = low & low32
    right, high = np.maximum(t, 0).astype(_U64), np.maximum(t - 32, 0).astype(_U64)
    q = ((H >> high) << (high + _U64(32) - right)) | (L >> right)      # floor
    twice_r = ((((H & ((one << high) - one)) << _U64(32)) | L)
               & ((one << right) - one)) << one
    unit = one << right
    up = (twice_r > unit) | ((twice_r == unit) & (q & one == one))
    d = (q + up.astype(_U64)) << np.maximum(-t, 0).astype(_U64)    # t = -1: exact
    carry = d == _U64(10**17)
    d[carry] = _U64(10**16)
    e += carry
    # w: d's digits with a digit 1 inserted after the e + 1 integer digits;
    # it becomes the point, or nothing when the fraction is 0
    p = tens[16 - e]
    whole = d // p
    w = d + whole * (_U64(9) * p) + p
    g = [w // _U64(10**12) % _U64(10**4), w // _U64(10**8) % _U64(10**4),
         w // _U64(10**4) % _U64(10**4), w % _U64(10**4)]
    buf = np.empty((len(d), 20), dtype=np.uint32)     # the text is columns 2..19
    quads = buf.view("U4")
    cut = _U64(10**4)          # w's trailing zeros are cut, up to its digit 1
    for i in (3, 2, 1, 0):
        quads[:, i + 1] = groups[g[i] + cut]
        cut = np.where(g[i] == _U64(0), cut, _U64(0))
    lead = w // _U64(10**16)
    buf[:, 2] = lead // _U64(10) + _U64(ord("0"))
    buf[:, 3] = lead % _U64(10) + _U64(ord("0"))
    buf[np.arange(len(d)), e + 3] = np.where(d == whole * p, 0, ord("."))
    text = buf[:, 2:].view("U18")[:, 0].tolist()      # without trailing NULs
    slow = np.flatnonzero(~fast)
    if not len(slow):
        return text
    out, done = [], 0       # merge in the other values, in order
    for k, (i, other) in enumerate(zip(slow.tolist(), x[slow].tolist())):
        out += text[done:i - k]
        out.append("%.17g" % other)
        done = i - k
    return out + text[done:]


class _Layout(NamedTuple):
    """The constant text of one spectrum format.

    A line prints as `open` (`start` for the first line), lambda,
    `lam_mult`, multiplicity, `mult_sources`, its sources and `close`;
    `end` follows the last line, and `empty` stands for no lines.  A
    source prints as `source`, k and `source_end`, each formatted with
    `% {"family": name, "n": n}`, and every source but a line's first is
    preceded by `sep`.
    """
    start: str
    open: str
    lam_mult: str
    mult_sources: str
    source: str
    sep: str
    source_end: str
    close: str
    end: str
    empty: str


# as `render_json` prints the lines (family names are plain identifiers,
# so they need no escaping)
_JSON_LAYOUT = _Layout(
    start='[\n    {\n      "lambda": ',
    open=',\n    {\n      "lambda": ',
    lam_mult=',\n      "multiplicity": ',
    mult_sources=',\n      "sources": [\n',
    source='        {\n          "family": "%(family)s",\n          "k": ',
    sep=",\n",
    source_end=',\n          "n": %(n)d\n        }',
    close="\n      ]\n    }",
    end="\n  ]",
    empty="[]")

_CSV_HEADER = "lambda,multiplicity,sources\n"
_CSV_LAYOUT = _Layout(start=_CSV_HEADER, open="\n", lam_mult=",", mult_sources=",",
                      source="%(family)s:%(n)d:", sep=";", source_end="", close="",
                      end="\n", empty=_CSV_HEADER)


def _write_spectrum(spectrum, layout: _Layout, prefix: str = "", suffix: str = ""):
    """Yield `prefix`, the spectrum's lines in `layout`, then `suffix`, in
    chunks of _CHUNK_LINES lines: the column writer behind both spectrum
    formats.

    A chunk is one object array of string pieces, joined once.  Line i0 + i
    takes 2 pieces of its own, lambda and its multiplicity text, and 3 per
    source, so with b = bounds - bounds[i0] it starts at piece 2 i + 3 b[i],
    and the source at order[bounds[i0] + j] puts its source, k and
    source_end at 2 i + 3 j + 2 onwards.  The constant text is folded into
    the looked-up texts: the multiplicity text holds `lam_mult` and
    `mult_sources`, and a line's last source_end holds `close` and the next
    line's `open`.  The source texts are looked up by family and level,
    and every distinct number is formatted once: the multiplicities and k
    through tables (each family's k values are one run from 0 or 1, so the
    k table is at most one entry longer than the sources), and lambda once
    per run of bit-equal values in a chunk (compared as int64, so +0 and -0
    differ), by the array kernel `_format_17g`.  For 1 <= lambda < 2^53,
    every lambda but 0, it finds the correctly rounded 17 digits in exact
    integer arithmetic, which are the digits Python's formatter prints;
    every other value goes to Python's formatter (see the module
    docstring).  All pieces are scattered by that index arithmetic: no Python
    code runs per line or per source.
    """
    a, order, bounds, lam = spectrum.arrays, spectrum.order, spectrum.bounds, spectrum.lam
    if not len(lam):
        yield prefix + layout.empty + suffix
        return
    levels = int(a.n.max()) + 1
    keys = [{"family": name, "n": n} for name in a.names for n in range(levels)]
    first = np.array([layout.source % key for key in keys], dtype=object)
    later = np.array([layout.sep + text for text in first], dtype=object)
    source_end = np.array([layout.source_end % key for key in keys], dtype=object)
    last_end = source_end + (layout.close + layout.open)
    k_text = np.array(list(map(str, range(int(a.k.max()) + 1))), dtype=object)
    mults, mult_index = np.unique(spectrum.multiplicity, return_inverse=True)
    mult_text = np.array([layout.lam_mult + str(m) + layout.mult_sources
                          for m in mults.tolist()], dtype=object)
    bits = lam.view(np.int64)
    for i0 in range(0, len(lam), _CHUNK_LINES):
        i1 = min(i0 + _CHUNK_LINES, len(lam))
        b = bounds[i0:i1 + 1] - bounds[i0]
        starts = 2 * np.arange(i1 - i0 + 1) + 3 * b
        line = starts[:-1]
        sources = 2 * np.repeat(np.arange(i1 - i0), np.diff(b)) + 3 * np.arange(b[-1]) + 2
        entries = order[bounds[i0]:bounds[i1]]
        code = a.family[entries] * levels + a.n[entries]
        run = np.append(True, bits[i0 + 1:i1] != bits[i0:i1 - 1])
        lam_text = np.array(_format_17g(lam[i0:i1][run]), dtype=object)
        pieces = np.empty(starts[-1], dtype=object)
        pieces[line] = lam_text[np.cumsum(run) - 1]
        pieces[line + 1] = mult_text[mult_index[i0:i1]]
        pieces[sources] = later[code]
        pieces[line + 2] = first[code[b[:-1]]]
        pieces[sources + 1] = k_text[a.k[entries]]
        pieces[sources + 2] = source_end[code]
        pieces[starts[1:] - 1] = last_end[code[b[1:] - 1]]
        if i0 == 0:
            pieces[0] = prefix + layout.start + pieces[0]
        if i1 == len(lam):
            pieces[-1] = source_end[code[-1]] + layout.close + layout.end + suffix
        yield "".join(pieces.tolist())


_TRACE_JSON = '    {\n      "row": "%s",\n      "value": %.17g,\n      "x": %.17g\n    }'


def _trace_to_json(eigenvalue: float, trace) -> str:
    """The trace document exactly as `render_json` prints it, one `%`
    template per node (row labels are 0, 1 and *, so they need no
    escaping)."""
    rows = ",\n".join([_TRACE_JSON % (row, val, x) for x, row, val in trace])
    return ('{\n  "eigenvalue": %.17g,\n  "trace": %s\n}'
            % (eigenvalue, "[\n" + rows + "\n  ]" if rows else "[]"))


# ---------------------------------------------------------------------------
# argument handling

def _sequence(args) -> JSequence:
    try:
        values = tuple(int(v) for v in args.j.split(","))
    except ValueError:
        raise UsageError(f"cannot parse subdivision sequence {args.j!r}")
    return JSequence(values, periodic=args.periodic)


def _plate_config(args) -> PlateConfig:
    if args.plates is None:
        raise UsageError("this command needs --plates N,Z,X0")
    try:
        N, Z, x0 = args.plates.split(",")
        N, Z, x0 = int(N), int(Z), float(x0)
    except ValueError:
        raise UsageError("--plates takes N,Z,X0 (integers N and Z, a number X0), "
                         f"got {args.plates!r}") from None
    return PlateConfig(N, Z, x0, hbar=getattr(args, "hbar", 1.0))


class _Flag(NamedTuple):
    """One long flag of a subcommand, as both parsers read it."""
    flag: str
    type: Callable[[str], Any] | None = None    # None keeps the string
    choices: tuple | None = None
    required: bool = False
    default: Any = None
    store_true: bool = False
    help: str | None = None
    alias: str | None = None                    # a short form, for argparse only

    @property
    def dest(self) -> str:
        """The namespace attribute, named as argparse names it."""
        return self.flag[2:].replace("-", "_")


class _Subcommand(NamedTuple):
    """A subcommand's help line, flags and help-page description."""
    help: str
    flags: tuple[_Flag, ...]
    description: str | None = None


_J = _Flag("--j", required=True, help="comma list of subdivision counts")
_PERIODIC = _Flag("--periodic", store_true=True,
                  help="repeat the list forever instead of treating it as a prefix")
_COMMON = (_Flag("--output", default="-", help="output path ('-' = stdout)", alias="-o"),
           _Flag("--format", choices=("json", "csv"), default="json"))

# Every subcommand's flags, in the order its help page lists them.
_SUBCOMMANDS = {
    "describe": _Subcommand("dimensions and basic data of a space", (
        _J, _PERIODIC,
        _Flag("--level", type=int,
              help="level for finite-level estimates (explicit sequences)"),
        *_COMMON)),
    "census": _Subcommand("shape counts, closed form vs brute force", (
        _J, _PERIODIC,
        _Flag("--level", type=int, required=True),
        _Flag("--region", choices=("well", "plates")),
        _Flag("--plates", help="N,Z,X0 (region=plates)"),
        *_COMMON)),
    "spectrum": _Subcommand("closed-form eigenvalue lines", (
        _Flag("--kind", choices=("free", "square-well", "plates"), required=True),
        _Flag("--j", help="comma list of subdivision counts"),
        _Flag("--periodic", store_true=True),
        _Flag("--lambda-max", type=float, required=True),
        _Flag("--policy", choices=(MERGED, PER_FAMILY), default=MERGED),
        _Flag("--plates", help="N,Z,X0 (kind=plates)"),
        *_COMMON)),
    "solve": _Subcommand("numeric eigensolve on a quantum graph", (
        _J, _PERIODIC,
        _Flag("--level", type=int, required=True),
        _Flag("--potential", choices=("free", "square_well", "coulomb", "parabolic"),
              default="free"),
        _Flag("--mesh", type=int, help="interior points per edge (default: 8 per cell rule)"),
        _Flag("--count", type=int, default=10),
        _Flag("--cluster-tol", type=float, default=1e-2),
        _Flag("--plates", help="N,Z,X0 for a plate graph"),
        _Flag("--trace", type=int, help="emit the eigenfunction trace of this index instead"),
        *_COMMON),
        description="Lowest eigenvalues of the finite-difference Hamiltonian on the "
                    "level-n graph (those nearest zero for coulomb).  The row flips "
                    "split the Hamiltonian into 1-D tridiagonal segment problems, "
                    "each solved once and counted with its multiplicity; the "
                    "Hamiltonian is never assembled."),
    "zeta": _Subcommand("spectral zeta function of a periodic space", (
        _J, _PERIODIC,
        _Flag("--s", required=True, help="argument, 're' or 're,im'; a negative real "
              "part needs the '=' form, as in --s=-0.5,0"),
        *_COMMON)),
    "casimir": _Subcommand("regularized plate energy and force", (
        _Flag("--N", type=int, required=True),
        _Flag("--Z", type=int, required=True),
        _Flag("--X0", type=float, required=True),
        _Flag("--hbar", type=float, default=1.0),
        *_COMMON)),
}

# For `_parse`: each subcommand's flags by long name, and its defaults by
# dest, which leave out only the required flags.
_LONG_FLAGS = {name: ({f.flag: f for f in cmd.flags},
                      {f.dest: False if f.store_true else f.default
                       for f in cmd.flags if not f.required})
               for name, cmd in _SUBCOMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    ap = argparse.ArgumentParser(
        prog="laakso",
        description="Spectra, zeta functions, and Casimir energies on Laakso spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, description=cmd.description)
        for f in cmd.flags:
            names = (f.flag, f.alias) if f.alias else (f.flag,)
            if f.store_true:
                p.add_argument(*names, action="store_true", help=f.help)
            else:
                p.add_argument(*names, type=f.type, choices=f.choices, required=f.required,
                               default=f.default, help=f.help)
    return ap


def _parse(argv) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed `argv` (see the module
    docstring), or None for any other.  A store_true flag takes no value,
    no value may be empty, and a flag given twice keeps its last value, as
    in argparse."""
    if not argv or argv[0] not in _LONG_FLAGS:
        return None
    flags, defaults = _LONG_FLAGS[argv[0]]
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        flag = flags.get(name)
        if flag is None:
            return None
        if flag.store_true:
            if eq:
                return None
            given[flag.dest] = True
            continue
        if not eq:
            value = next(rest, "-")     # a missing value is refused as '-' is
            if value.startswith("-"):
                return None
        if not value:
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except (TypeError, ValueError):
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        given[flag.dest] = value
    args = defaults | given
    if len(args) < len(flags):      # a required flag is missing
        return None
    return SimpleNamespace(command=argv[0], **args)


# The parser `main` uses, built on the first call.  It is bound to the
# function itself, so rebinding the module name `build_parser` does not
# change which parser `main` gets.
_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# commands

def _cmd_describe(args):
    seq = _sequence(args)
    n = args.level if args.level is not None else (seq.period or len(seq.values))
    geom = well_geometry(seq, n) if n >= 1 else None
    # I_n = 4 w, or d's denominator (at most 4 I_n), is the widest integer
    # printed; it is refused before the products I_0..I_n are listed
    _check_printable(max(int(4 * geom.w), geom.d.denominator) if n >= 1 else 1,
                     f"--level {n}")
    out = {
        "sequence": seq.describe(),
        "level_products": level_products(seq, n),
        "hausdorff_dimension": hausdorff_dimension(
            seq, None if seq.periodic else n),
    }
    if seq.periodic:
        out["spectral_dimension"] = spectral_dimension(seq)
        out["poles_m0"] = [[p.real, p.imag] for p in zeta_poles(seq, (0,))]
    if n >= 1:
        out["well_geometry"] = {
            "level": n,
            "w": [geom.w.numerator, geom.w.denominator],
            "d": [geom.d.numerator, geom.d.denominator],
            "wall_on_node": geom.wall_on_node,
        }
    return out


def _check_printable(x: int, what: str):
    """Refuse, before anything is rendered, an integer x >= 1 with more
    decimal digits than Python converts to a string."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()   # 0: no limit
    # below 2^(3 limit) < 10^limit, x has at most `limit` digits
    if not limit or x.bit_length() <= 3 * limit or x < 10 ** limit:
        return
    digits = int(math.log10(x)) + 1     # may be one off near a power of 10
    digits += (x >= 10 ** digits) - (x < 10 ** (digits - 1))
    raise UsageError(f"{what} prints an integer of {digits} digits, over Python's "
                     f"limit of {limit} digits for converting an integer to a string")


def _cmd_census(args):
    seq = _sequence(args)
    n = args.level
    if args.plates is not None and args.region != "plates":
        raise UsageError("--plates applies only to --region plates")
    plates = _plate_config(args) if args.region == "plates" else None
    graph = build_graph(seq, n, plates=plates)
    brute = shape_census(graph, region=args.region)
    vees, loops, crosses = census_closed_form(seq, n)
    out = {
        "level": n,
        "cells": graph.num_cells,
        "closed_form": {"vees": vees, "loops": loops, "crosses": crosses},
        "brute_force": {"vees": brute.vees, "loops": brute.loops,
                        "crosses": brute.crosses},
        "match": (vees, loops, crosses) == (brute.vees, brute.loops, brute.crosses),
    }
    if args.region is not None:
        out["region"] = args.region
        out["split"] = {
            kind: {"interior": s.interior, "exterior": s.exterior,
                   "straddling": s.straddling}
            for kind, s in brute.split.items()
        }
        out["half_crosses_interior"] = brute.half_crosses_interior
        if args.region == "well":
            full, half, loops_in = interior_shape_counts(seq, n)
            out["interior_closed_form"] = {
                "full_crosses": full, "half_crosses": half, "loops": loops_in}
    out["column_boundaries"] = [
        {"kind": kind, "m": m, "a": a, "b": b}
        for kind, m, (a, b) in column_boundaries(seq, n)
    ] if n >= 1 else []
    return out


def _cmd_spectrum(args):
    query = SpectrumQuery(args.lambda_max, args.policy)
    if args.kind == "plates":
        if args.j is not None or args.periodic:
            raise UsageError("--j and --periodic do not apply to plates spectra")
        lines = plates_spectrum(_plate_config(args), query)
    else:
        if args.plates is not None:
            raise UsageError("--plates applies only to --kind plates")
        if args.j is None:
            raise UsageError("--j is required for free and square-well spectra")
        seq = _sequence(args)
        gen = free_spectrum if args.kind == "free" else square_well_spectrum
        lines = gen(seq, query)
    if args.format == "csv":
        return _write_spectrum(lines, _CSV_LAYOUT)
    # the document around the lines, as render_json prints it
    head, _, tail = render_json({"kind": args.kind, "lambda_max": args.lambda_max,
                                 "lines": [], "policy": args.policy}).partition("[]")
    return _write_spectrum(lines, _JSON_LAYOUT, head, tail)


# h = (1/I_n)/(M+1) <= 1/(8 I_n) needs M >= 7: at least 8 segments per cell
DEFAULT_MESH = 7


def _cmd_solve(args):
    if args.trace is not None and not 0 <= args.trace < args.count:
        raise UsageError(f"--trace {args.trace} is not the index of one of the "
                         f"--count {args.count} eigenpairs")
    cluster((), args.cluster_tol)       # a bad tolerance fails before the solve
    seq = _sequence(args)
    plates = _plate_config(args) if args.plates else None
    graph = build_graph(seq, args.level, plates=plates)
    mesh = args.mesh if args.mesh is not None else DEFAULT_MESH
    op, result = solve(graph, mesh, Potential(args.potential), args.count)
    if args.trace is not None:
        trace = eigenfunction_trace(op, result, args.trace)
        if args.format == "csv":
            return "x,row,value\n" + "".join(["%.17g,%s,%.17g\n" % node for node in trace])
        return _trace_to_json(float(result.eigenvalues[args.trace]), trace)
    clusters = cluster(result, args.cluster_tol)
    return {
        "dim": op.dimension,
        "mesh": mesh,
        "potential": args.potential,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "clusters": [{"mean": m, "count": c} for m, c in clusters],
        "residual_max": float(result.residuals.max()),
        "mode": result.info["mode"],
    }


def _cmd_zeta(args):
    seq = _sequence(args)
    try:
        s = complex(*(float(part) for part in args.s.split(",")))
    except (TypeError, ValueError):     # complex() takes at most two parts
        raise UsageError(f"--s takes 're' or 're,im', got {args.s!r}") from None
    if not cmath.isfinite(s):
        raise UsageError(f"--s must be finite, got {args.s!r}")
    # Every zeta call loads mpmath, which zeta_R(2s) uses at Re 2s <= 1 and
    # at |Im 2s| > 120, so that no later call in a process imports inside
    # its own time; the other commands never load it.
    import mpmath  # noqa: F401
    if s == 0.5:
        value = complex(zeta_limit_half(seq))
        mode = "limit"
    else:
        zv = spectral_zeta_periodic(seq, s)
        value, mode = zv.value, zv.mode
    return {"s": [s.real, s.imag], "value": [value.real, value.imag], "mode": mode}


def _cmd_casimir(args):
    cfg = PlateConfig(args.N, args.Z, args.X0, hbar=args.hbar)
    energy = plate_zeta_energy(cfg)
    force = casimir_force(cfg)
    return {
        "N": cfg.N, "Z": cfg.Z, "X0": cfg.x0, "hbar": cfg.hbar,
        "energy": {"a": energy.a, "b": energy.b, "total": energy.total},
        "force": force.force,
        "oracle_force": force.oracle_force,
        "agreement": force.agreement,
        "consistent": force.consistent,
    }


_COMMANDS = {
    "describe": _cmd_describe,
    "census": _cmd_census,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "zeta": _cmd_zeta,
    "casimir": _cmd_casimir,
}


def _check_format(args):
    """Only `spectrum` and `solve --trace` have a CSV form."""
    if args.format == "csv" and not (
            args.command == "spectrum"
            or (args.command == "solve" and args.trace is not None)):
        raise UsageError(f"{args.command} has no --format csv output; "
                         "only spectrum and solve --trace write CSV")


def _error(message: str, code: int) -> int:
    sys.stderr.write(render_json({"error": message, "exit": code}) + "\n")
    return code


def _out_of_memory(args, exc: MemoryError) -> int:
    return _error(f"{args.command} ran out of memory: {str(exc) or 'MemoryError'}", 2)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or _parser().parse_args(argv)
    try:
        _check_format(args)
        out = _COMMANDS[args.command](args)
    except (ValueError, PoleError) as exc:
        return _error(str(exc), 2)
    except ConvergenceError as exc:
        return _error(str(exc), 3)
    except MemoryError as exc:
        return _out_of_memory(args, exc)
    if isinstance(out, dict):
        out = render_json(out)
    try:
        # `spectrum` returns its chunks unmade: each is written as it is made
        _write((out,) if isinstance(out, str) else out, args.output)
    except OSError as exc:
        return _error(f"cannot write --output {args.output}: {exc.strerror or exc}", 2)
    except MemoryError as exc:
        return _out_of_memory(args, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
