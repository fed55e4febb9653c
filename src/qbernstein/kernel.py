"""Exact rational arithmetic, p-adic valuation, and integer combinatorics.

Rationals are stdlib ``fractions.Fraction`` values, which already guarantee
canonical lowest terms with a positive denominator, so equality of values is
structural.  Everything here is pure, deterministic, and immutable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "DomainError",
    "binomial_coeff",
    "format_rational",
    "is_odd_prime",
    "padic_valuation",
    "parse_rational",
    "require_padic_convergence",
    "to_rational",
]

class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse an ``a/b`` literal into a Fraction (``b`` omitted means ``/1``).

    Decimal literals are rejected on purpose: exact and floating inputs are
    kept apart everywhere, so ``0.5`` is not a valid rational literal.
    """
    s = text.strip().replace("−", "-")  # tolerate the typographic minus
    if not _RATIONAL_RE.fullmatch(s):
        raise DomainError(f"malformed rational literal: {text!r}")
    num, _, den = s.partition("/")
    if not den:
        return Fraction(int(num))
    if int(den) == 0:
        raise DomainError(f"zero denominator in rational literal: {text!r}")
    return Fraction(int(num), int(den))


def format_rational(value: Fraction | int) -> str:
    """Canonical ``a/b`` form; integral values print without the ``/1``.

    Prints ``str(Fraction(value))``.  Ints (``bool`` included) and Fractions
    are formatted from their numerator and denominator directly.
    """
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, Fraction):
        den = value.denominator
        return str(value.numerator) if den == 1 else f"{value.numerator}/{den}"
    return str(Fraction(value))


def to_rational(value: Fraction | int | str) -> Fraction:
    """Coerce exact inputs to Fraction.  Floats are refused deliberately."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r} (use parse_rational or Fraction)")


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def padic_valuation(r: Fraction | int | str, p: int) -> int | float:
    """v_p of a rational: the exponent of p in r, with v_p(0) = +infinity.

    The sentinel is ``math.inf`` (never a large integer), so comparisons
    against finite convergence thresholds behave correctly.  |r|_p equals
    p ** -padic_valuation(r, p).
    """
    if not is_odd_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    r = to_rational(r)
    if r == 0:
        return math.inf
    return _int_valuation(abs(r.numerator), p) - _int_valuation(r.denominator, p)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def require_padic_convergence(q: Fraction, p: int, level: int) -> None:
    """Preconditions of a truncated alternating sum over x < p**level: an
    odd prime p, level >= 1, and the convergence regime |q|_p <= 1,
    |1-q|_p < 1 in which the sums tend p-adically to their limits."""
    if not is_odd_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    if level < 1:
        raise DomainError(f"level must be >= 1, got {level}")
    if padic_valuation(q, p) < 0 or padic_valuation(q - 1, p) < 1:
        raise DomainError("need |q|_p <= 1 and |1-q|_p < 1 for p-adic convergence")


def binomial_coeff(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
