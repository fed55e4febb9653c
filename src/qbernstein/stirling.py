"""q-analog Stirling numbers of the second kind and the expansion of the
monomial u**n over the q-binomial-polynomial basis.

Reduce to the classical objects at q = 1.  The expansion identity is
verified coefficient-wise in u (a strictly stronger check than sampling
integer x values), using the same [x-i]_q reduction as ``qbinom_upoly``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import DomainError, to_rational
from .qcore import q_factorial, qbinom_upoly
from .upoly import UPoly

__all__ = ["q_stirling2", "qstirling_expansion_upoly"]


def q_stirling2(n: int, k: int, q) -> Fraction:
    """q-Stirling number of the second kind:
    q**-C(k,2) / [k]_q! * sum_j (-1)**j q**C(j,2) C_q(k,j) [k-j]_q**n.

    Uses 0**0 = 1 (needed for the n = k = 0 value 1).  q = 0 is excluded by
    the negative power of q, q = -1 by the vanishing q-factorials; q = 1 is
    fine and gives the classical numbers.

    With q = a/b each term of the sum is an integer over b**e_j (b-a)**n:
    [m]_q = (b**m - a**m) b / (b**m (b-a)), and g_j = b**(j(k-j)) C_q(k,j)
    is an integer, grown along the row by the exact division
    g_j = g_(j-1) (b**(k-j+1) - a**(k-j+1)) // (b**j - a**j).  The terms
    are summed over the largest b**e_j and one Fraction is built.
    """
    q = to_rational(q)
    if n < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    if q == 0:
        raise DomainError("q = 0 is excluded (negative powers of q)")
    if q == -1:
        raise DomainError("q = -1 zeroes [k]_q! for k >= 2")
    if q == 1:
        return Fraction(
            sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)),
            math.factorial(k),
        )
    a, b = q.numerator, q.denominator
    terms = []  # (numerator, exponent e_j of b in its denominator)
    g = 1
    for j in range(k + 1):
        if j:
            g = g * (b ** (k - j + 1) - a ** (k - j + 1)) // (b**j - a**j)
        m, c2 = k - j, math.comb(j, 2)
        terms.append(
            ((-1) ** j * a**c2 * g * ((b**m - a**m) * b) ** n, c2 + j * m + m * n)
        )
    top = max(e for _, e in terms)
    total = sum(t * b ** (top - e) for t, e in terms)
    # q**-C(k,2) / [k]_q! = b**(2 C(k,2)) (b-a)**k / (a**C(k,2) prod (b**i - a**i))
    ck = math.comb(k, 2)
    return Fraction(
        total * b ** (2 * ck) * (b - a) ** k,
        a**ck * b**top * (b - a) ** n * math.prod(b**i - a**i for i in range(1, k + 1)),
    )


def qstirling_expansion_upoly(n: int, q) -> UPoly:
    """Reassemble u**n from the q-binomial-polynomial basis:
    sum_k q**C(k,2) [k]_q! s_q(n,k) * qbinom_upoly(k).

    The contract is that the result equals the monomial u**n exactly; the
    verifier asserts that equality coefficient-wise.
    """
    q = to_rational(q)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if q == 0 or q == -1:
        raise DomainError("q = 0 and q = -1 are excluded")
    acc = UPoly.zero()
    for k in range(n + 1):
        scale = q ** math.comb(k, 2) * q_factorial(k, q) * q_stirling2(n, k, q)
        if scale != 0:
            acc = acc + scale * qbinom_upoly(k, q)
    return acc
