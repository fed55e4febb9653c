"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of the workload seed, so the same seed always
gives the same argv and the same kernel jobs.  The program under test only
ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("verify-default", "verify-raised", "kernels-deep")

# The q sample set `qb verify` uses when no --q is given.
DEFAULT_QS = ("1/2", "2/3", "3/5", "5/4", "3")

# Rationals a/b with 2 <= a, b <= 11, gcd 1, a != b: 62 values, all of which
# pass the raised verify run and stay in the E-table's regular domain.
Q_CLASS = tuple(
    Fraction(a, b)
    for a in range(2, 12)
    for b in range(2, 12)
    if a != b and math.gcd(a, b) == 1
)

VERIFY_COMMAND = ("verify", "--suite", "all", "--include-printed-counterexamples")
# 16 is the largest nmax VerifyConfig accepts.
RAISED_BOUNDS = {"nmax": 16, "kmax": 4, "smax": 3}
RAISED_EXTRA_QS = 5

# kernels-deep sizes, all beyond the verifier's caps.
EULER_DEPTH = 110
BASIS_DEGREE = 64
BASIS_STEP = 4
FERMIONIC = {"n": 6, "q": "4", "p": 3, "level": 7}


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def raised_qs(seed: int) -> list[Fraction]:
    """The seeded q values verify-raised adds to the default sample set."""
    defaults = {Fraction(q) for q in DEFAULT_QS}
    pool = [q for q in Q_CLASS if q not in defaults]
    return _rng("verify-raised", seed).sample(pool, RAISED_EXTRA_QS)


def verify_config(workload: str, seed: int) -> dict:
    """Bounds and q values a verify workload sets; absent keys keep the CLI defaults."""
    if workload == "verify-default":
        return {}
    if workload == "verify-raised":
        return {**RAISED_BOUNDS, "qs": [*DEFAULT_QS, *(str(q) for q in raised_qs(seed))]}
    raise ValueError(f"not a verify workload: {workload!r}")


def verify_argv(workload: str, seed: int, out_path: str) -> list[str]:
    """`qb verify` arguments of one op; identical for every op of a run."""
    argv = [*VERIFY_COMMAND]
    for key, value in verify_config(workload, seed).items():
        if key == "qs":
            for q in value:
                argv += ["--q", q]
        else:
            argv += [f"--{key}", str(value)]
    return argv + ["--out", out_path]


def kernel_jobs(seed: int):
    """Endless stream of kernels-deep jobs.

    The E-table q walks a seeded permutation of Q_CLASS, so a run samples the
    class without repeats; its cost varies about threefold across the class.
    """
    rng = _rng("kernels-deep", seed)
    order = list(Q_CLASS)
    rng.shuffle(order)
    for q in itertools.cycle(order):
        yield {
            "euler": {"q": str(q), "n": EULER_DEPTH},
            "basis": {"n": BASIS_DEGREE, "step": BASIS_STEP},
            "product": [rng.randrange(BASIS_DEGREE + 1), rng.randrange(BASIS_DEGREE + 1)],
            "fermionic": dict(FERMIONIC),
        }
