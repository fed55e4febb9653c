#!/usr/bin/env python3
"""Valuation growth of truncated alternating sums against their E-number limits.

For each moment order n, prints the truncated sum S_N over x < p^N, the exact
limit value, and the p-adic valuation of the gap.  The valuation column
growing at least linearly in N is the convergence evidence the verifier
relies on.

Usage:
    python3 scripts/padic_convergence.py
    python3 scripts/padic_convergence.py --p 3 --q 7 --nmax 3 --levels 4
    python3 scripts/padic_convergence.py --p 3 --q 4 --nmax 1 --levels 12
"""

import argparse
import sys

sys.path.insert(0, "src")

from qbernstein.euler import euler_number, fermionic_sum
from qbernstein.kernel import format_rational, padic_valuation, parse_rational


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--q", type=parse_rational, default="4")
    parser.add_argument("--nmax", type=int, default=4)
    parser.add_argument("--levels", type=int, default=5)
    args = parser.parse_args()
    sys.set_int_max_str_digits(0)  # deep sums run past the 4300-digit default

    print(f"p = {args.p}, q = {format_rational(args.q)}")
    print(f"{'n':>3} {'N':>3} {'S_N':>24} {'E_n':>12} {'v_p(gap)':>9}")
    for n in range(args.nmax + 1):
        limit = euler_number(n, args.q)
        for level in range(1, args.levels + 1):
            s = fermionic_sum(n, args.q, args.p, level)
            v = padic_valuation(s - limit, args.p)
            s_text = format_rational(s)
            if len(s_text) > 24:
                s_text = s_text[:21] + "..."
            print(
                f"{n:>3} {level:>3} {s_text:>24} {format_rational(limit):>12} "
                f"{'inf' if v == float('inf') else v:>9}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
