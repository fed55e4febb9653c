"""Exact rational arithmetic, p-adic valuation, integer combinatorics, and
the base classes of the package's records.

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
    "FrozenRecord",
    "Record",
    "binomial_coeff",
    "format_rational",
    "is_odd_prime",
    "padic_valuation",
    "parse_rational",
    "require_nonempty",
    "require_nonnegative",
    "require_padic_convergence",
    "require_pole_free",
    "require_q_power_domain",
    "require_qfactorial_domain",
    "require_real_domain",
    "require_real_pole_free",
    "to_rational",
]

class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class Record:
    """Base of the package's small records.

    A subclass names its fields in ``__slots__``, in the order its
    ``__init__`` takes them.  This base compares records field by field,
    prints a repr that names the fields, and pickles a record as a call of
    its class on the field values.  Records are unhashable; a
    ``FrozenRecord`` is hashable and refuses assignment.  These plain classes
    stand in for ``dataclasses``, whose import (with ``inspect``, ``ast`` and
    ``dis``) took about a fifth of every ``qb`` start.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A hashable record whose fields cannot be assigned after ``__init__``,
    which sets them through ``_init``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


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
    # Miller-Rabin with the primes up to 37 as witnesses is exact below
    # 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017), so below 2**64
    if p < 3 or p % 2 == 0:
        return False
    if p >= 2**64:
        raise DomainError(f"the odd-prime test is exact only below 2**64, got p = {p}")
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p <= 37:
        return p in witnesses
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for a in witnesses:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and x != p - 1:
            for _ in range(s - 1):
                x = x * x % p
                if x == p - 1:
                    break
            else:
                return False
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


def require_nonnegative(value: int, name: str) -> None:
    """The size rule: an index, degree, order or exponent is an integer >= 0."""
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")


def require_nonempty(values, name: str) -> None:
    """The nonempty rule: a sample set, coefficient list or factor list has
    at least one entry."""
    if not values:
        raise DomainError(f"{name} must be nonempty")


def require_padic_convergence(q: Fraction, p: int, level: int) -> None:
    """Preconditions of a truncated alternating sum over x < p**level: an
    odd prime p, level >= 1, and the convergence regime |q|_p <= 1,
    |1-q|_p < 1 in which the sums tend p-adically to their limits."""
    v_q = padic_valuation(q, p)  # refuses a p that is not an odd prime, before the level
    if level < 1:
        raise DomainError(f"level must be >= 1, got {level}")
    if v_q < 0 or padic_valuation(q - 1, p) < 1:
        raise DomainError("need |q|_p <= 1 and |1-q|_p < 1 for p-adic convergence")


def require_pole_free(q) -> Fraction:
    """q as a Fraction, off the poles 0, 1 and -1 of the moment identities."""
    q = to_rational(q)
    if q == 0 or q == 1 or q == -1:
        raise DomainError(f"q = {q} is a pole of the moment identities; q must avoid 0, 1 and -1")
    return q


def require_q_power_domain(x: int, q) -> Fraction:
    """q as a Fraction at which q**x exists: a negative x needs q != 0."""
    q = to_rational(q)
    if x < 0 and q == 0:
        raise DomainError("negative x requires q != 0")
    return q


def require_qfactorial_domain(q) -> Fraction:
    """q as a Fraction off 0 and -1 at every k; q**C(k,2) [k]_q! vanishes there for k >= 2."""
    q = to_rational(q)
    if q == 0 or q == -1:
        raise DomainError(f"q = {q} is excluded from the q-factorial family at every k")
    return q


def require_real_domain(x: float, q: float) -> None:
    """Preconditions of the floating path: a finite q > 0 and an x that is
    not nan (an infinite x gives an infinite or limiting u = [x]_q)."""
    if not 0 < q < math.inf:  # also refuses nan
        raise DomainError(f"q must be finite and positive, got {q}")
    if math.isnan(x):
        raise DomainError("x must not be nan")


def require_real_pole_free(x: float, q: float) -> None:
    """``require_real_domain`` and q != 1, the pole of (1 - q**x) / (1 - q)."""
    require_real_domain(x, q)
    if q == 1:
        raise DomainError("q = 1 is a pole of the floating path (1 - q**x) / (1 - q)")


def binomial_coeff(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    require_nonnegative(n, "n")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
