"""q-analog Euler numbers and polynomials with their functional equations.

The numbers E_n are the alternating-sum moments of the q-numbers.  The
binomial recurrence grown from E_0 = 1 is the ground-truth route here; a
closed rational sum cross-checks it, and a truncated alternating sum whose
p-adic valuation gap must grow with the truncation level serves as an
independent numerical oracle.

Two corrections relative to forms that circulate in print are built in and
documented at the functions involved: the polynomial expansion carries the
[x]_q powers (``euler_poly``), and the complement moment reflects the
parameter to 1/q (``complement_moment``).  The false printed variants are
exercised by the verifier's counterexample section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .kernel import (
    DomainError,
    binomial_coeff,
    require_padic_convergence,
    to_rational,
)
from .qcore import q_number_int, q_number_real

__all__ = [
    "EulerTable",
    "complement_moment",
    "euler_closed",
    "euler_number",
    "euler_poly",
    "euler_poly_closed",
    "euler_poly_real",
    "euler_table",
    "fermionic_sum",
    "reflection_check",
    "shift_moment",
    "shift_moment_sum",
]


@dataclass(frozen=True)
class EulerTable:
    """Memoized prefix E_0..E_N for one fixed rational q.

    Immutable: extension returns a new, longer table.  q = -1 is impossible
    (1 + q**n vanishes for odd n); q = 1 is allowed and gives the classical
    Euler numbers.
    """

    q: Fraction
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.q == -1:
            raise DomainError("q = -1 makes 1 + q**n vanish for odd n")
        if not self.values or self.values[0] != 1:
            raise DomainError("a table must start with E_0 = 1")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    @property
    def nmax(self) -> int:
        return len(self.values) - 1

    def extend(self, nmax: int) -> "EulerTable":
        """A table for the same q covering 0..nmax; self is unchanged."""
        if nmax <= self.nmax:
            return EulerTable(self.q, self.values[: nmax + 1])
        return euler_table(self.q, nmax)

    def check_recurrence(self) -> bool:
        """Re-verify every entry against the defining recurrence
        sum_l C(n,l) q**l E_l + E_n = 0."""
        q = self.q
        for n in range(1, len(self.values)):
            s = sum(binomial_coeff(n, l) * q**l * self.values[l] for l in range(n + 1))
            if s + self.values[n] != 0:
                return False
        return True


class _Prefix(NamedTuple):
    """A cached E-table prefix: the values, the same values written as
    integer numerators ``nums`` over their least common denominator ``den``,
    and the recurrence's last Pascal antidiagonal ``diag`` over ``den``, from
    which an extension resumes."""

    values: tuple[Fraction, ...]
    den: int
    nums: tuple[int, ...]
    diag: tuple[int, ...]


_CACHE: dict[Fraction, _Prefix] = {}


def euler_table(q, nmax: int) -> EulerTable:
    """Build E_0..E_nmax by the recurrence E_n = -(sum_{l<n} C(n,l) q**l E_l) / (1 + q**n).

    The recurrence runs on integers: with q = a/b and E_l = e_l / D over
    the least common denominator D of the entries so far,

        E_n = -sum_{l<n} C(n,l) a**l b**(n-l) e_l / (D (a**n + b**n)).

    The binomial sums are walked along Pascal antidiagonals, so no entry
    multiplies a binomial coefficient or a power of a or b into a numerator
    (see ``_prefix``).  One gcd against the small factor a**n + b**n keeps D
    the least common denominator, and each new entry is normalised once,
    when its Fraction is built.  Prefixes per q are cached module-wide,
    integer state included, so a longer request resumes where the cache
    stops; tables themselves are immutable.
    """
    q = to_rational(q)
    return EulerTable(q=q, values=_prefix(q, nmax).values[: nmax + 1])


def _prefix(q, nmax: int) -> _Prefix:
    """The cached prefix for q, extended to cover at least E_0..E_nmax.

    It may run past nmax; the integer kernels index or slice it directly
    and build no table.

    With T(m, r) = sum_l C(m,l) a**l b**(m-l) e_(l+r), Pascal's rule gives
    T(m, r) = b T(m-1, r) + a T(m-1, r+1), and the recurrence says
    T(d, 0) = -b**d e_d.  The antidiagonal A_d[m] = T(m, d-m) therefore
    yields each entry in two passes over A_(d-1): Horner in a gives the
    known part K = T(d, 0) - a**d e_d, so e_d = -K / (a**d + b**d); then
    A_d[0] = e_d and A_d[m] = b m_d A_(d-1)[m-1] + a A_d[m-1], where m_d is
    the factor by which D grew.  ``nums`` are put over the final D once per
    extension, by suffix products of the m_d.
    """
    q = to_rational(q)
    if nmax < 0:
        raise DomainError(f"nmax must be nonnegative, got {nmax}")
    if q == -1:
        raise DomainError("q = -1 makes 1 + q**n vanish for odd n")
    prefix = _CACHE.get(q) or _Prefix((Fraction(1),), 1, (1,), (1,))
    start = len(prefix.values)
    if start <= nmax:
        a, b = q.numerator, q.denominator
        values, den, diag = list(prefix.values), prefix.den, prefix.diag
        fresh, steps = [], []  # each new e_d over D at step d, and each m_d
        ad, bd = a ** (start - 1), b ** (start - 1)
        for _ in range(start, nmax + 1):
            ad, bd = ad * a, bd * b
            k = 0
            for t in diag:
                k = k * a + t
            s, c = -b * k, ad + bd
            g = math.gcd(s, c)
            s, m = s // g, c // g
            if m < 0:
                s, m = -s, -m
            den *= m
            bm, row, t_prev = b * m, [s], s
            for t in diag:
                t_prev = bm * t + a * t_prev
                row.append(t_prev)
            diag = row
            fresh.append(s)
            steps.append(m)
            values.append(Fraction(s, den))
        scale = 1
        for i in range(len(fresh) - 1, -1, -1):
            fresh[i] *= scale
            scale *= steps[i]
        nums = [e * scale for e in prefix.nums] + fresh
        prefix = _Prefix(tuple(values), den, tuple(nums), tuple(diag))
        _CACHE[q] = prefix
    return prefix


def euler_number(n: int, q) -> Fraction:
    """E_n at the given rational q (recurrence route, cached)."""
    return _prefix(q, n).values[n]


def euler_closed(n: int, q) -> Fraction:
    """Closed form E_n = 2 (1-q)**-n sum_l C(n,l) (-1)**l / (1 + q**l).

    Independent of the recurrence route; q = 1 and q = -1 are genuine poles
    here and are rejected.
    """
    q = to_rational(q)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if q == 1 or q == -1:
        raise DomainError("q = 1 and q = -1 are poles of the closed form")
    s = sum(
        Fraction(binomial_coeff(n, l) * (-1) ** l) / (1 + q**l) for l in range(n + 1)
    )
    return 2 * s / (1 - q) ** n


def _reject_poles(q: Fraction) -> Fraction:
    if q == 1 or q == -1:
        raise DomainError("q = 1 and q = -1 are excluded here")
    return q


def euler_poly(n: int, x: int, q) -> Fraction:
    """E_n(x) = sum_l C(n,l) q**(l x) E_l [x]_q**(n-l), exact for integer x.

    Both the q**(l x) weights and the [x]_q powers are required: dropping
    the latter (as one printed variant does) breaks E_n(0) = E_n and the
    shift functional equation.

    The sum runs on integers: with q**x = c/d, [x]_q = U/V and E_l = e_l/D
    over the table's common denominator, it is
    sum_l C(n,l) e_l (c V)**l (d U)**(n-l) / (D (d V)**n).
    """
    q = _reject_poles(to_rational(q))
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if q == 0 and x < 0:
        raise DomainError("negative x requires q != 0")
    prefix = _prefix(q, n)
    ux = q_number_int(x, q)
    a, b = q.numerator, q.denominator
    c, d = (a**x, b**x) if x >= 0 else (b**-x, a**-x)
    cv, du = c * ux.denominator, d * ux.numerator
    total = sum(
        math.comb(n, l) * e * cv**l * du ** (n - l)
        for l, e in enumerate(prefix.nums[: n + 1])
    )
    return Fraction(total, prefix.den * (d * ux.denominator) ** n)


def euler_poly_closed(n: int, x: int, q) -> Fraction:
    """E_n(x) via the closed sum 2 (1-q)**-n sum_l C(n,l) (-1)**l q**(l x) / (1+q**l).

    A second, independent route used to cross-check ``euler_poly``.
    """
    q = _reject_poles(to_rational(q))
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if q == 0 and x < 0:
        raise DomainError("negative x requires q != 0")
    s = sum(
        Fraction(binomial_coeff(n, l) * (-1) ** l) * q ** (l * x) / (1 + q**l)
        for l in range(n + 1)
    )
    return 2 * s / (1 - q) ** n


def euler_poly_real(n: int, x: float, q: float) -> float:
    """Floating overload of ``euler_poly`` for real x; needs q > 0, q != 1."""
    if q <= 0 or q == 1:
        raise DomainError("the floating path needs q > 0 and q != 1")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if q > 1:
        # The recurrence below loses all precision for q > 1; the reflection
        # E_{n,q}(x) = (-q)**-n E_{n,1/q}(1-x) keeps it at 1/q < 1.
        return euler_poly_real(n, 1.0 - x, 1.0 / q) / (-q) ** n
    values = [1.0]
    for m in range(1, n + 1):
        acc = sum(binomial_coeff(m, l) * q**l * values[l] for l in range(m))
        values.append(-acc / (1.0 + q**m))
    ux = q_number_real(x, q)
    return sum(
        binomial_coeff(n, l) * q ** (l * x) * values[l] * ux ** (n - l)
        for l in range(n + 1)
    )


def shift_moment(shift: int, m: int, q) -> Fraction:
    """E_m(shift) + (-1)**(shift-1) E_m, the measure-shift functional value.

    Contract: equals ``shift_moment_sum(shift, m, q)``, the doubled
    alternating boundary sum.  shift = 1 is the basic one-step equation.
    """
    if shift < 1:
        raise DomainError("shift must be a positive integer")
    q = to_rational(q)
    return euler_poly(m, shift, q) + (-1) ** (shift - 1) * euler_number(m, q)


def shift_moment_sum(shift: int, m: int, q) -> Fraction:
    """2 sum_{l < shift} (-1)**(shift-l-1) [l]_q**m, the boundary side of the
    shift functional equation."""
    if shift < 1:
        raise DomainError("shift must be a positive integer")
    q = to_rational(q)
    return 2 * sum(
        ((-1) ** (shift - l - 1) * q_number_int(l, q) ** m for l in range(shift)),
        Fraction(0),
    )


def reflection_check(n: int, x: int, q) -> tuple[Fraction, Fraction]:
    """Both sides of the parameter-reflection identity.

    Returns (E_{n,1/q}(1-x), (-q)**n E_{n,q}(x)); the two components are
    equal for every integer x and admissible q.
    """
    q = to_rational(q)
    if q == 0:
        raise DomainError("q = 0 has no reciprocal parameter")
    left = euler_poly(n, 1 - x, 1 / q)
    right = (-q) ** n * euler_poly(n, x, q)
    return (left, right)


def complement_moment(n: int, q) -> Fraction:
    """The n-th moment of 1 - [x]_q: sum_l C(n,l) (-1)**l E_{l,q}.

    For n >= 1 this equals 2 + E_{n,1/q}; note the reflected parameter.
    The same expression with E_{n,q} circulates in print and is false
    (already at n = 1, q = 1/2: 5/3 versus 4/3); the verifier keeps that
    variant as a counterexample.  For n = 0 the value is 1.
    """
    q = to_rational(q)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if q == 0:
        raise DomainError("q = 0 has no reciprocal parameter for the contract")
    _reject_poles(q)
    prefix = _prefix(q, n)
    return Fraction(
        sum(math.comb(n, l) * (-1) ** l * e for l, e in enumerate(prefix.nums[: n + 1])),
        prefix.den,
    )


def fermionic_sum(n: int, q, p: int, level: int) -> Fraction:
    """Truncated alternating sum S_N = sum_{x < p**N} (-1)**x [x]_q**n.

    This is the independent p-adic oracle for E_n: when |1-q|_p < 1 and
    |q|_p <= 1 the valuation v_p(S_N - E_n) grows without bound in N, and
    the verifier measures that growth.  Outside that regime the limit does
    not exist, so the preconditions are enforced.

    For q != 1 the sum takes n + 1 steps instead of p**level.  Expanding
    (1 - q**x)**n and summing each geometric series gives, with odd
    N = p**level, q = a/b and B = b**(N-1), S_N = b**n sum_j (-1)**j C(n,j)
    g_j B**(n-j) / (B (b-a))**n.  Each g_j = (b**(jN) + a**(jN)) / (b**j + a**j)
    is an integer, as x + y divides x**N + y**N for odd N; one Fraction is built.
    """
    q = to_rational(q)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    require_padic_convergence(q, p, level)
    terms = p**level
    if q == 1:
        return Fraction(sum((-1) ** x * x**n for x in range(terms)))
    a, b = q.numerator, q.denominator
    a_step, b_step, shift = a**terms, b**terms, b ** (terms - 1)
    total, ajn, bjn = 0, 1, 1  # running a**(jN), b**(jN)
    for j in range(n + 1):  # Horner in B = shift
        g = (bjn + ajn) // (b**j + a**j) * math.comb(n, j)
        total = total * shift + (-g if j & 1 else g)
        ajn, bjn = ajn * a_step, bjn * b_step
    return Fraction(total * b**n, (shift * (b - a)) ** n)
