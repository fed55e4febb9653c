#!/usr/bin/env python3
"""Distance between the q-deformed basis and the classical basis as q -> 1.

Sweeps q toward 1 and reports the largest pointwise gap over all basis
members of degree <= nmax on an x grid, for both the values and the
x-derivatives.  The gaps shrink roughly linearly in |1 - q|.

Usage:
    python3 scripts/classical_limit_sweep.py
    python3 scripts/classical_limit_sweep.py --nmax 8 --grid-steps 50
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbernstein.bernstein import basis_derivative, basis_eval_real


def max_gaps(nmax: int, q: float, xs: list[float]) -> tuple[float, float]:
    value_gap = 0.0
    deriv_gap = 0.0
    for n in range(nmax + 1):
        for k in range(n + 1):
            for x in xs:
                value_gap = max(
                    value_gap,
                    abs(basis_eval_real((k, n), x, q) - basis_eval_real((k, n), x, 1.0)),
                )
                deriv_gap = max(
                    deriv_gap,
                    abs(basis_derivative((k, n), x, q) - basis_derivative((k, n), x, 1.0)),
                )
    return value_gap, deriv_gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--grid-steps", type=int, default=20)
    args = parser.parse_args()

    xs = [i / args.grid_steps for i in range(1, args.grid_steps)]
    print(f"{'q':>12} {'max |B_q - B|':>15} {'max |dB_q - dB|':>17}")
    for exponent in range(1, 8):
        q = 1.0 - 10.0**-exponent
        value_gap, deriv_gap = max_gaps(args.nmax, q, xs)
        print(f"{q:>12.7f} {value_gap:>15.3e} {deriv_gap:>17.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
