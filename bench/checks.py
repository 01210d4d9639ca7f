"""Output checks for benchmark calls; they run outside the timed region.

`describe`, `census`, `spectrum`, `zeta` and `casimir` calls must exit as
recorded and print byte-identical output (stdout on exit 0, the error
JSON on stderr otherwise): the sha256 of each call's output at the seed
commit is in `expected.json`.  `census` must also report a match between
the closed form and the brute-force census.

`solve` calls must exit 0 with `residual_max` <= 1e-8.  Their eigenvalues
are checked against an independent oracle where one exists: the
closed-form free spectrum (or the plate spectrum for a plate graph)
within FREE_TOL relative.  Other potentials are checked against the
eigenvalues recorded at the seed within SEED_TOL relative; README.md
gives the reasons for both tolerances.
"""

from __future__ import annotations

import hashlib
import json

FREE_TOL = 1e-3
SEED_TOL = 1e-6
RESIDUAL_TOL = 1e-8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str], rc: int, out: str, err: str) -> dict:
    """The expected-output entry for one call, as `expected.json` holds it."""
    if argv[0] != "solve" or rc != 0:
        return {"exit": rc, "sha256": digest(out if rc == 0 else err)}
    data = json.loads(out)
    eig = [data["eigenvalue"]] if "trace" in data else data["eigenvalues"]
    return {"exit": rc, "eigenvalues": eig}


def _opt(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _close(got: list[float], want: list[float], tol: float) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} eigenvalues, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > tol * max(abs(w), 1.0):
            return f"eigenvalue {i} is {g!r}, expected {w!r} within {tol:g} relative"
    return None


class Checker:
    def __init__(self, expected: dict):
        self.expected = expected
        self._oracles: dict[str, list[float] | None] = {}

    def check(self, argv: list[str], rc: int, out: str, err: str) -> str | None:
        """None if the call's outcome is correct, else the reason it is not."""
        exp = self.expected.get(" ".join(argv))
        if exp is None:
            return "no expected output recorded for this call"
        if argv[0] == "solve":
            return self._check_solve(argv, rc, out, err, exp)
        if rc != exp["exit"]:
            return f"exit {rc}, expected {exp['exit']}: {err.strip()}"
        if digest(out if rc == 0 else err) != exp["sha256"]:
            return "output differs from the recorded output"
        if argv[0] == "census" and '"match": true' not in out:
            return "closed-form and brute-force census disagree"
        return None

    def _check_solve(self, argv, rc, out, err, exp) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()}"
        data = json.loads(out)
        if "trace" in data:
            got = [data["eigenvalue"]]
        else:
            got = data["eigenvalues"]
            if not data["residual_max"] <= RESIDUAL_TOL:
                return f"residual_max {data['residual_max']:.3e} exceeds {RESIDUAL_TOL:g}"
        want = self._oracle(argv, max(got))
        if want is None:
            return _close(got, exp["eigenvalues"], SEED_TOL)
        if "trace" in data:
            want = want[int(_opt(argv, "--trace")):]
        return _close(got, want[:len(got)], FREE_TOL)

    def _oracle(self, argv: list[str], top: float) -> list[float] | None:
        """Closed-form eigenvalues (ascending, with multiplicity) covering
        the call's window, or None when no closed form applies."""
        key = " ".join(argv)
        if key not in self._oracles:
            self._oracles[key] = _closed_form(argv, 2 * top + 10)
        return self._oracles[key]


def _closed_form(argv: list[str], lambda_max: float) -> list[float] | None:
    from laakso import (PER_FAMILY, JSequence, PlateConfig, SpectrumQuery,
                        free_spectrum, plates_spectrum)

    if (_opt(argv, "--potential") or "free") != "free":
        return None
    query = SpectrumQuery(lambda_max, PER_FAMILY)
    plates = _opt(argv, "--plates")
    if plates is not None:
        N, Z, x0 = plates.split(",")
        lines = plates_spectrum(PlateConfig(int(N), int(Z), float(x0)), query)
    else:
        values = tuple(int(v) for v in _opt(argv, "--j").split(","))
        lines = free_spectrum(JSequence(values, periodic="--periodic" in argv), query)
    return sorted(line.lam for line in lines for _ in range(line.multiplicity))
