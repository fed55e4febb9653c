"""Alternating-measure moments of q-Bernstein basis members and products.

Every value here is an exact rational expressed through q-Euler numbers.
The basis moment, the product moment and the power-product moment are one
formula: the moment of prod_i B_{k,n_i}**m_i, with every multiplicity 1 for
a product and a single factor for a basis member.  That formula has two
routes.  The direct route (``_direct``) expands the integrand in powers of
u = [x]_q and reads off E-moments at q; the reflected route
(``_reflected``) rewrites the integrand through 1 - u and lands on E-values
at the reciprocal parameter 1/q.  Equality of the two routes is a central
family of identities the verifier checks.

The reflected forms that circulate in print keep the parameter q instead of
1/q.  Each printed form is therefore the corrected reflected route called
at the reciprocal parameter, and the counterexample section evaluates it
that way.  Some instances coincide numerically under both parameters (for
example the product with k = 1 and degrees (2, 2)), which is why the suites
always include a separating instance such as the single factor k = 1, n = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import basis_eval_exact
from .euler import _prefix, euler_number
from .kernel import (
    DomainError,
    binomial_coeff,
    require_padic_convergence,
    to_rational,
)
from .qcore import q_number_int

__all__ = [
    "IntegralInstance",
    "fermionic_basis_sum",
    "integral_basis",
    "integral_basis_reflected",
    "integral_power_product",
    "integral_power_product_direct",
    "integral_product",
]


def _pole_free(q) -> Fraction:
    q = to_rational(q)
    if q == 0 or q == 1 or q == -1:
        raise DomainError(f"q = {q} is excluded (pole of the moment forms)")
    return q


def _direct(k: int, pairs, q: Fraction) -> Fraction:
    """prod_i C(n_i,k)**m_i sum_j C(T-kM,j) (-1)**j E_{j+kM,q}, with
    T = sum m_i n_i and M = sum m_i; zero when the coefficient vanishes."""
    coeff = math.prod(binomial_coeff(n, k) ** m for n, m in pairs)
    if coeff == 0:
        return Fraction(0)
    total = sum(n * m for n, m in pairs)
    kM = k * sum(m for _, m in pairs)
    d = total - kM  # >= 0 whenever the coefficient is nonzero
    prefix = _prefix(q, total)
    e = prefix.nums
    return Fraction(
        coeff * sum(math.comb(d, j) * (-1) ** j * e[j + kM] for j in range(d + 1)),
        prefix.den,
    )


def _reflected(k: int, pairs, qr: Fraction) -> Fraction:
    """prod_i C(n_i,k)**m_i sum_j C(kM,j) (-1)**(kM-j) E_{T-j,qr}, or
    2 + E_{T,qr} when kM = 0; needs T > kM."""
    total = sum(n * m for n, m in pairs)
    kM = k * sum(m for _, m in pairs)
    if kM == 0:
        return 2 + euler_number(total, qr)
    coeff = math.prod(binomial_coeff(n, k) ** m for n, m in pairs)
    prefix = _prefix(qr, total)
    e = prefix.nums
    return Fraction(
        coeff
        * sum(math.comb(kM, j) * (-1) ** (kM - j) * e[total - j] for j in range(kM + 1)),
        prefix.den,
    )


@dataclass(frozen=True)
class IntegralInstance:
    """One power-product moment: prod_i B_{k,n_i}**m_i at a fixed rational q."""

    k: int
    degrees: tuple[tuple[int, int], ...]  # (n_i, m_i) pairs, m_i >= 1
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", to_rational(self.q))
        object.__setattr__(
            self, "degrees", tuple((int(n), int(m)) for n, m in self.degrees)
        )
        if self.k < 0:
            raise DomainError("k must be nonnegative")
        if not self.degrees:
            raise DomainError("at least one factor is required")
        if any(n < 0 or m < 1 for n, m in self.degrees):
            raise DomainError("need n_i >= 0 and m_i >= 1")

    @property
    def total_degree(self) -> int:
        return sum(n * m for n, m in self.degrees)

    @property
    def multiplicity(self) -> int:
        return sum(m for _, m in self.degrees)


def integral_basis(k: int, n: int, q) -> Fraction:
    """Moment of one basis member by direct u-expansion:
    C(n,k) sum_l C(n-k,l) (-1)**l E_{k+l,q}.

    This route uses nothing beyond the definition of the E-moments, so it is
    the ground truth the reflected forms are checked against.  Zero when
    n < k (the basis member itself vanishes).
    """
    q = _pole_free(q)
    if k < 0 or n < 0:
        raise DomainError("indices must be nonnegative")
    return _direct(k, ((n, 1),), q)


def integral_basis_reflected(k: int, n: int, q) -> Fraction:
    """The same moment routed through the substitution u -> 1 - u.

    Lands on E-values at the reciprocal parameter: 2 + E_{n,1/q} for k = 0,
    else C(n,k) sum_j C(k,j) (-1)**(k+j) E_{n-j,1/q}.  Requires n > k so
    every exponent that meets the complement rule stays positive.  Must
    equal ``integral_basis(k, n, q)``.  Called at 1/q it gives the printed
    form, false in general: the printed value at k = 1, n = 3, q = 1/2 is
    this function at q = 2, -4/3, where the moment is 2/15.
    """
    q = _pole_free(q)
    if k < 0:
        raise DomainError("k must be nonnegative")
    if n <= k:
        raise DomainError("the reflected route needs n > k")
    return _reflected(k, ((n, 1),), 1 / q)


def integral_product(k: int, ns, q, method: str = "direct") -> Fraction:
    """Moment of prod_i B_{k,n_i} over s factors.

    ``direct``: prod_i C(n_i,k) times sum_j C(N-sk,j) (-1)**j E_{j+sk,q}
    with N = sum(ns); valid for every admissible instance.

    ``reflected``: routes through 1 - u, needs N > s k, and uses the
    reciprocal parameter (2 + E_{N,1/q} for k = 0).  Equality of the two
    methods is the product-moment identity in corrected form.  The printed
    reflected form is this method called at 1/q; it coincides with the
    truth on some symmetric instances but separates e.g. at k = 1,
    ns = (1, 2), q = 1/2 (4/45 versus -8/9).
    """
    q = _pole_free(q)
    degrees = tuple(int(n) for n in ns)
    if not degrees:
        raise DomainError("at least one factor is required")
    if k < 0 or any(n < 0 for n in degrees):
        raise DomainError("indices must be nonnegative")
    pairs = tuple((n, 1) for n in degrees)
    if method == "direct":
        return _direct(k, pairs, q)
    if method == "reflected":
        if sum(degrees) <= len(degrees) * k:
            raise DomainError("the reflected route needs sum(ns) > s*k")
        return _reflected(k, pairs, 1 / q)
    raise DomainError(f"unknown method: {method!r}")


def integral_power_product(instance: IntegralInstance) -> Fraction:
    """Reflected-route moment of prod_i B_{k,n_i}**m_i.

    With T = sum m_i n_i, M = sum m_i and kM = k*M, evaluates
    prod_i C(n_i,k)**m_i sum_j C(kM,j) (-1)**(kM-j) (2 + E_{T-j,1/q}); the
    additive 2 cancels under the alternating sum whenever kM > 0.  Needs
    T > kM.  Cross-checked against ``integral_power_product_direct``.
    """
    q = _pole_free(instance.q)
    if instance.total_degree <= instance.k * instance.multiplicity:
        raise DomainError("needs total degree > k * multiplicity")
    return _reflected(instance.k, instance.degrees, 1 / q)


def integral_power_product_direct(instance: IntegralInstance) -> Fraction:
    """Direct u-expansion of the power-product moment (oracle route):
    prod_i C(n_i,k)**m_i sum_j C(T-kM,j) (-1)**j E_{j+kM,q}."""
    return _direct(instance.k, instance.degrees, _pole_free(instance.q))


def fermionic_basis_sum(k: int, n: int, q, p: int, level: int) -> Fraction:
    """Truncated alternating sum of the basis integrand at u = [x]_q.

    Independent p-adic oracle for ``integral_basis``: the valuation of the
    difference must be at least the truncation level in the convergence
    regime |1-q|_p < 1, |q|_p <= 1.
    """
    q = to_rational(q)
    if k < 0 or n < 0:
        raise DomainError("indices must be nonnegative")
    require_padic_convergence(q, p, level)
    total = Fraction(0)
    sign = 1
    for x in range(p**level):
        total += sign * basis_eval_exact((k, n), q_number_int(x, q))
        sign = -sign
    return total
