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
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbernstein.euler import euler_number, fermionic_sum
from qbernstein.kernel import format_rational, padic_valuation, parse_rational

WIDTH = 24  # longer S_N values print their first WIDTH - 3 characters and "..."


def _leading_digits(n: int, k: int) -> tuple[str, int]:
    """The first k decimal digits of n >= 0 (all of them if it has fewer)
    and its digit count, without converting the whole of n to decimal."""
    # n >= 2**(b-1), so n // 10**e keeps at least k + 1 digits; the extra
    # 1 absorbs rounding in the float estimate of log10(2**(b-1)).
    e = max(0, int((n.bit_length() - 1) * math.log10(2)) - k - 1)
    lead = str(n // 10**e)
    return lead[:k], len(lead) + e


def sum_column(s: Fraction) -> str:
    """``format_rational(s)``, cut to WIDTH - 3 characters plus "..." when
    it is longer than WIDTH."""
    keep = WIDTH - 3
    sign = "-" if s < 0 else ""
    num, num_len = _leading_digits(abs(s.numerator), WIDTH)
    length = len(sign) + num_len
    text = sign + num
    if s.denominator != 1:
        den, den_len = _leading_digits(s.denominator, WIDTH)
        length += 1 + den_len
        if num_len == len(num):  # the whole numerator is in text
            text += "/" + den
    return text if length <= WIDTH else text[:keep] + "..."


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--q", type=parse_rational, default="4")
    parser.add_argument("--nmax", type=int, default=4)
    parser.add_argument("--levels", type=int, default=5)
    args = parser.parse_args()

    print(f"p = {args.p}, q = {format_rational(args.q)}")
    print(f"{'n':>3} {'N':>3} {'S_N':>24} {'E_n':>12} {'v_p(gap)':>9}")
    for n in range(args.nmax + 1):
        limit = euler_number(n, args.q)
        for level in range(1, args.levels + 1):
            s = fermionic_sum(n, args.q, args.p, level)
            v = padic_valuation(s - limit, args.p)
            print(
                f"{n:>3} {level:>3} {sum_column(s):>{WIDTH}} {format_rational(limit):>12} "
                f"{'inf' if v == float('inf') else v:>9}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
