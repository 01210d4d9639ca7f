"""Invariance oracles: one space asked two ways gives one answer.

None needs a closed form or the dense H, so they hold for every
potential at every size, and a slip in how the row-flip segments are
found or placed shows in them where no closed form reaches.
"""

import contextlib
import io

import bench_data
import numpy as np
import pytest
from small_graphs import RIDDLED

from laakso import (JSequence, PlateConfig, Potential, build_graph, cli, reduce_rows,
                    solve_row_flip)


def run(argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv.split())
    return rc, out.getvalue(), err.getvalue()


def _uneven(x):
    """A potential with no mirror symmetry about x = 1/2."""
    return 30.0 * np.sin(3.0 * x) ** 2 + 50.0 * x**3


@pytest.mark.parametrize("values,n", [
    (values, n) for values in ((2,), (3,), (2, 3), (3, 2), (2, 5), (4,)) for n in range(1, 5)
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_mirror_has_one_spectrum(values, n):
    # The level-n graph of a periodic sequence is symmetric under
    # x -> 1 - x, each column mirrored onto one born at its level, so V(x)
    # and V(1 - x) have one spectrum.  The mirror reverses each segment and
    # moves each x by up to an ulp, and both solves are backward stable, so
    # the two differ by rounding: over these 24 cases by at most 2.8e-12
    # relative (at (4), n = 4) and 4.4 eps ||T||_1.  1e-10 leaves 36 times
    # that for other LAPACK builds; an eigenvalue that moves with the
    # orientation moves by far more.
    g = build_graph(JSequence(values, periodic=True), n)
    spectra = [solve_row_flip(reduce_rows(g, 7, Potential("custom", func=func)), 12).eigenvalues
               for func in (_uneven, lambda x: _uneven(1.0 - x))]
    gap = np.abs(spectra[0] - spectra[1]) / np.maximum(1.0, np.abs(spectra[0]))
    assert gap.max() <= 1e-10


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("command", [
    "census --periodic --level {n}",
    "solve --periodic --level {n} --count 12",
    "solve --periodic --level {n} --count 12 --potential square_well",
    "solve --periodic --level {n} --count 12 --potential parabolic --trace 3 --format csv",
])
def test_doubled_period_gives_the_same_output(command, n):
    # (2, 2, ...) is the sequence (2, ...): one graph, so one output, byte
    # for byte
    once, twice = (run(f"{command.format(n=n)} --j {j}") for j in ("2", "2,2"))
    assert once == twice and once[0] == 0


def test_zeta_reads_one_period_however_spelled():
    # `--j 2,3` repeated twice or three times is the same periodic space,
    # so every zeta call of the benchmark's pool (the series, the
    # continuation, s = 1/2 and points on both pole lattices) prints the
    # same bytes, the exit code and the error text included
    calls = [c.split() for c in bench_data.workloads().analytic_pool() if c.startswith("zeta ")]
    assert len(calls) > 90
    for argv in calls:
        j = argv.index("--j") + 1
        once, twice, thrice = (run(" ".join(argv[:j] + [",".join([argv[j]] * k)] + argv[j + 1:]))
                               for k in (1, 2, 3))
        assert once == twice == thrice, argv


@pytest.mark.parametrize("values,n,plates,pot", [
    ((2,), n, None, Potential("free")) for n in range(5)
] + [
    ((2, 3), 3, None, Potential("square_well")),
    ((2, 3), 3, None, Potential("coulomb")),
    ((3,), 3, None, RIDDLED),
    ((5,), 2, PlateConfig(5, 0, 0.2), Potential("free")),
], ids=str)
def test_each_character_is_tiled_by_its_segments(values, n, plates, pot):
    # Block S is the path cut at the walls, the conducting columns and the
    # columns born at a level whose bit is in S.  The segments reduce_rows
    # gives to S, copy by copy, end at such cuts and cover each of its
    # other nodes once, so the blocks together hold the graph's space.
    M = 7
    g = build_graph(JSequence(values, periodic=True), n, plates=plates)
    rop = reduce_rows(g, M, pot)
    end = len(rop.xs)
    cut = ~np.isfinite(pot.values(rop.xs))
    cut[np.asarray(g.conducting_columns(), dtype=int) * (M + 1)] = True
    birth = np.zeros(end, dtype=int)
    birth[::M + 1] = g.birth
    S = np.arange(1 << n)[:, None]
    dirichlet = cut | ((birth > 0) & ((S >> (n - birth)) & 1).astype(bool))
    dirichlet = np.pad(dirichlet, ((0, 0), (1, 1)), constant_values=True)   # the path ends
    covered = np.zeros((1 << n, end), dtype=int)
    for i, (a, b, w) in enumerate(zip(rop.starts.tolist(), rop.stops.tolist(),
                                      rop.weights.tolist())):
        chars = rop.characters(i, np.arange(w))
        assert dirichlet[chars, a].all() and dirichlet[chars, b + 1].all()
        covered[chars, a:b] += 1
    assert np.array_equal(covered, (~dirichlet[:, 1:-1]).astype(int))
