"""The benchmark's workloads: fixed lists of `laakso` CLI calls.

Each workload is a list of argv lists passed to `laakso.cli.main`.
`exact` is the spectrum and census calls (exact-rational enumeration:
`spectra`, `graphs`); `numeric` is the solve calls plus 1000 small
zeta/casimir/describe calls (`solver`, `zeta`, `casimir`).  The seed only
orders the calls and draws the small ones from a fixed pool, so every
seed does the same work and the expected output of every call is
recorded once in `expected.json`.  README.md says why each group of
calls exists and which layer it loads.
"""

from __future__ import annotations

import math
import random

# Tiny calls run once per subcommand before timing: the set-up a user pays
# before the first real answer (imports, first-call lazy work).
WARMUP = {
    "describe": "describe --j 2 --periodic",
    "census": "census --j 2 --periodic --level 2",
    "spectrum": "spectrum --kind free --j 2 --periodic --lambda-max 100",
    "solve": "solve --j 2 --periodic --level 1 --count 2",
    "zeta": "zeta --j 2 --periodic --s 2",
    "casimir": "casimir --N 5 --Z 0 --X0 0.2",
}

SPECTRUM = [
    "spectrum --kind free --j 2 --periodic --lambda-max 1e10 --policy merged",
    "spectrum --kind free --j 2,3 --periodic --lambda-max 1e9 --policy per-family",
    "spectrum --kind square-well --j 2 --periodic --lambda-max 1e9",
    "spectrum --kind square-well --j 2,3 --periodic --lambda-max 1e9",
    "spectrum --kind plates --plates 5,0,0.2 --lambda-max 1e9 --policy merged",
    "spectrum --kind plates --plates 7,2,0.15 --lambda-max 1e9 --policy per-family",
]

CENSUS = [
    "census --j 2 --periodic --level 8",
    "census --j 2 --periodic --level 8 --region well",
    "census --j 2,3 --periodic --level 7 --region well",
    "census --j 7 --periodic --level 4 --region plates --plates 7,2,0.15",
]

SOLVE = [
    # dim 1944: dense path (the solver switches to shift-invert above 2000)
    "solve --j 2 --periodic --level 4 --potential free --count 20",
    # dim 30816: shift-invert, one call per potential kind
    "solve --j 2 --periodic --level 6 --potential free --count 20",
    "solve --j 2 --periodic --level 6 --potential square_well --count 20",
    "solve --j 2 --periodic --level 6 --potential coulomb --count 20",
    "solve --j 2 --periodic --level 6 --potential parabolic --count 20",
    "solve --j 2,3 --periodic --level 4 --potential square_well --count 20",
    "solve --j 5 --periodic --level 3 --plates 5,0,0.2 --count 20",
    "solve --j 2 --periodic --level 5 --count 10 --trace 3",
]

# Small calls of every subcommand, for the benchmark's self-test.
SELFTEST = [
    "describe --j 2,3 --periodic",
    "census --j 2 --periodic --level 3 --region well",
    "spectrum --kind free --j 2 --periodic --lambda-max 1e4",
    "solve --j 2 --periodic --level 2 --mesh 31 --count 6",
    "solve --j 2 --periodic --level 5 --potential square_well --count 4",
    "zeta --j 2 --periodic --s 1",
    "zeta --j 2,3 --periodic --s=-1.5,40",
    "casimir --N 7 --Z 2 --X0 0.15",
]

_ZETA_SEQUENCES = ["2", "3", "4", "2,3", "2,3,5"]
# real and complex s in the series and continued regions; negative real
# parts are passed as --s=... so argparse does not read them as options
_ZETA_S = ["3", "2", "1.25", "0.75", "0.25", "0", "-0.5", "-1.5",
           "2,1", "0.7,3", "1.2,60", "0.3,-2", "-1.5,40"]
_CASIMIR_X0 = ["0.1", "0.2", "0.25", "0.3", "0.45"]
_DESCRIBE = [
    "describe --j 2 --periodic", "describe --j 3 --periodic",
    "describe --j 2,3 --periodic", "describe --j 2,3,5 --periodic",
    "describe --j 3,2,4 --periodic", "describe --j 2,3",
    "describe --j 2,3,5,2", "describe --j 4,2,3 --level 2",
    "describe --j 2,2,3,3 --level 4", "describe --j 5 --periodic",
]

ANALYTIC_CALLS = 1000


def _pole_lattice(values: list[int], m: int) -> list[float | complex]:
    """The two zeta pole lattices at index m, from the closed form's
    denominators I_T^(2s) = I_T 2^T and I_T^(2s) = 2^T."""
    T = len(values)
    I_T = math.prod(values)
    den = math.log(I_T**2)
    im = 2 * T * math.pi * m / den
    return [complex(math.log(2**T * I_T) / den, im),
            complex(math.log(2**T) / den, im)]


def _s_arg(s: complex) -> str:
    return f"--s={s.real!r}" if s.imag == 0 else f"--s={s.real!r},{s.imag!r}"


def analytic_pool() -> list[str]:
    """Every small call the `numeric` workload may draw."""
    pool = []
    for j in _ZETA_SEQUENCES:
        values = [int(v) for v in j.split(",")]
        s_args = [f"--s={s}" for s in _ZETA_S] + ["--s=0.5"]
        s_args += [_s_arg(p) for m in (-1, 0, 1) for p in _pole_lattice(values, m)]
        pool += [f"zeta --j {j} --periodic {s}" for s in s_args]
    for N in range(3, 10):
        for Z in range(N - 1):
            if (N - Z - 1) % 2 == 0:
                pool += [f"casimir --N {N} --Z {Z} --X0 {x0}" for x0 in _CASIMIR_X0]
    pool.append("casimir --N 7 --Z 2 --X0 0.15 --hbar 2.5")
    pool += _DESCRIBE
    return list(dict.fromkeys(pool))


WORKLOADS = {
    "exact": lambda rng: SPECTRUM + CENSUS,
    "numeric": lambda rng: SOLVE + rng.choices(analytic_pool(), k=ANALYTIC_CALLS),
    "selftest": lambda rng: list(SELFTEST),
}


def calls(workload: str, seed: int) -> list[list[str]]:
    """The workload's calls for this seed, as argv lists."""
    return [c.split() for c in WORKLOADS[workload](random.Random(seed))]


def warmups(workload_calls: list[list[str]]) -> list[list[str]]:
    """One tiny call of each subcommand the workload uses."""
    used = sorted({argv[0] for argv in workload_calls})
    return [WARMUP[cmd].split() for cmd in used]


def all_calls() -> list[str]:
    """Every distinct call of every workload, for recording expected outputs."""
    return sorted(set(SPECTRUM + CENSUS + SOLVE + SELFTEST + analytic_pool()))
