"""q-numbers and the exact combinatorics built on them.

Covers [x]_q on the exact and floating paths, q-factorials, Gaussian
binomials, the generalized q-binomial polynomial in u = [x]_q, forward
differences, and classical Stirling numbers of the second kind.  The
convention 0**0 = 1 is used throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import DomainError, binomial_coeff, to_rational
from .upoly import UPoly

__all__ = [
    "forward_differences",
    "forward_differences_binomial",
    "gaussian_binomial",
    "q_factorial",
    "q_number_int",
    "q_number_real",
    "qbinom_upoly",
    "stirling2",
]


def q_number_int(x: int, q) -> Fraction:
    """[x]_q = (1 - q**x) / (1 - q) for integer x; [x]_1 = x by the limit.

    Negative x is supported (it appears in the reflection identities) and
    needs q != 0.  With q = a/b the value is built from integers as
    (b**x - a**x) b / (b**x (b - a)), or (a**m - b**m) b / (a**m (b - a))
    with m = -x for negative x.
    """
    q = to_rational(q)
    if q == 1:
        return Fraction(x)
    if x < 0 and q == 0:
        raise DomainError("negative x requires q != 0")
    a, b = q.numerator, q.denominator
    if x < 0:
        am, bm = a**-x, b**-x
        return Fraction((am - bm) * b, am * (b - a))
    bx = b**x
    return Fraction((bx - a**x) * b, bx * (b - a))


def q_number_real(x: float, q: float) -> float:
    """[x]_q on the floating path; q must be positive and distinct from 1."""
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    if q == 1:
        raise DomainError("q = 1 is a pole of the floating form; use the limit value x")
    return (1.0 - q**x) / (1.0 - q)


def q_factorial(k: int, q) -> Fraction:
    """[k]_q! as the product of [i]_q for i = 1..k; the empty product is 1.

    With q = a/b this is prod (b**i - a**i) / prod b**(i-1) (b - a), one
    Fraction from two integer products; q = 1 gives k!.
    """
    q = to_rational(q)
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if q == 1:
        return Fraction(math.factorial(k))
    a, b = q.numerator, q.denominator
    return Fraction(
        math.prod(b**i - a**i for i in range(1, k + 1)),
        b ** math.comb(k, 2) * (b - a) ** k,
    )


def gaussian_binomial(k: int, j: int, q) -> Fraction:
    """[k]_q! / ([j]_q! [k-j]_q!); zero outside 0 <= j <= k.

    Expands to a polynomial in q with nonnegative integer coefficients.  At
    q = -1 the factorial ratio degenerates (even-index q-numbers vanish), so
    that value is rejected for the nontrivial index range.  With q = a/b,
    the homogenised polynomial b**(j(k-j)) [k choose j]_q is the integer
    prod (b**(k-j+i) - a**(k-j+i)) // prod (b**i - a**i), i = 1..j; the
    floor division is exact.
    """
    q = to_rational(q)
    if j < 0 or j > k:
        return Fraction(0)
    if j == 0 or j == k:
        return Fraction(1)
    if q == -1:
        raise DomainError("q = -1 zeroes the q-factorials in the ratio")
    if q == 1:
        return Fraction(math.comb(k, j))
    a, b = q.numerator, q.denominator
    num = math.prod(b ** (k - j + i) - a ** (k - j + i) for i in range(1, j + 1))
    den = math.prod(b**i - a**i for i in range(1, j + 1))
    return Fraction(num // den, b ** (j * (k - j)))


def qbinom_upoly(k: int, q) -> UPoly:
    """The generalized q-binomial coefficient in x, as a degree-k polynomial
    in u = [x]_q.

    Expands prod_{i=0..k-1} [x-i]_q / [k]_q! through the exact reduction
    [x-i]_q = (u - [i]_q) / q**i.  Needs q != 0 (negative powers of q) and
    q != -1 ([k]_q! vanishes for k >= 2); q = 1 is fine and reproduces the
    classical binomial polynomial.
    """
    q = to_rational(q)
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if q == 0:
        raise DomainError("q = 0 is excluded (negative powers of q appear)")
    if q == -1:
        raise DomainError("q = -1 zeroes [k]_q! for k >= 2")
    poly = UPoly.one()
    for i in range(k):
        qi = q_number_int(i, q)  # the factor u - [i]_q, from its integer parts
        poly = poly * UPoly.from_numerators((-qi.numerator, qi.denominator), qi.denominator)
    return poly / (q ** math.comb(k, 2) * q_factorial(k, q))


def forward_differences(samples) -> list[Fraction | int]:
    """Iterated forward differences: entry k is delta^k f(0) over f(0..n).

    Integer samples stay integers, so integer differences come back; any
    other exact sample is coerced to a Fraction.
    """
    vals = [s if type(s) is int else to_rational(s) for s in samples]
    if not vals:
        raise DomainError("samples must be nonempty")
    out = [vals[0]]
    while len(vals) > 1:
        vals = [b - a for a, b in zip(vals, vals[1:])]
        out.append(vals[0])
    return out


def forward_differences_binomial(samples) -> list[Fraction]:
    """The same values via the alternating binomial sum
    delta^k f(0) = sum_j C(k,j) (-1)**(k-j) f(j).

    Kept as an independent route so the iterated computation can be
    cross-checked against it.
    """
    vals = [to_rational(s) for s in samples]
    if not vals:
        raise DomainError("samples must be nonempty")
    n = len(vals) - 1
    return [
        sum((binomial_coeff(k, j) * (-1) ** (k - j) * vals[j] for j in range(k + 1)), Fraction(0))
        for k in range(n + 1)
    ]


def stirling2(m: int, k: int) -> int:
    """Classical Stirling numbers of the second kind via delta^k 0**m / k!.

    Uses 0**0 = 1, so stirling2(0, 0) = 1; zero whenever k > m.
    """
    if m < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    samples = [t**m for t in range(k + 1)]
    for _ in range(k):
        samples = [b - a for a, b in zip(samples, samples[1:])]
    return samples[0] // math.factorial(k)
