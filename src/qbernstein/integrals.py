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

``_checked`` owns the input rule of every public form (q off the poles 0,
1 and -1, k >= 0, factors n_i >= 0 with m_i >= 1), and ``_reflected`` the
reflected route's domain T = sum m_i n_i > kM = k sum m_i.

The reflected forms that circulate in print keep the parameter q instead of
1/q.  Each printed form is therefore the corrected reflected route called
at the reciprocal parameter, and the counterexample section evaluates it
that way.  Some instances coincide numerically under both parameters (for
example the product with k = 1 and degrees (2, 2)), which is why the suites
always include a separating instance such as the single factor k = 1, n = 3.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernstein import basis_upoly
from .euler import euler_number, fermionic_sum, moment
from .kernel import (
    DomainError,
    FrozenRecord,
    binomial_coeff,
    require_nonempty,
    require_nonnegative,
    require_padic_convergence,
    require_pole_free,
    to_rational,
)

__all__ = [
    "IntegralInstance",
    "fermionic_basis_sum",
    "integral_basis",
    "integral_basis_reflected",
    "integral_power_product",
    "integral_power_product_direct",
    "integral_product",
]


def _checked(k: int, pairs, q) -> Fraction:
    """q as a Fraction, once q is off the poles, k >= 0, and there is at
    least one (n_i, m_i) pair, each with n_i >= 0 and m_i >= 1."""
    q = require_pole_free(q)
    require_nonnegative(k, "k")
    require_nonempty(pairs, "the factor list")
    for n, m in pairs:
        if n < 0 or m < 1:
            raise DomainError("need n_i >= 0 and m_i >= 1")
    return q


def _direct(k: int, pairs, q: Fraction) -> Fraction:
    """prod_i C(n_i,k)**m_i sum_j C(T-kM,j) (-1)**j E_{j+kM,q}, with
    T = sum m_i n_i and M = sum m_i; zero when the coefficient vanishes."""
    coeff = math.prod(binomial_coeff(n, k) ** m for n, m in pairs)
    if coeff == 0:
        return Fraction(0)
    kM = k * sum(m for _, m in pairs)
    # T - kM >= 0 whenever the coefficient is nonzero
    return moment(kM, sum(n * m for n, m in pairs) - kM, q, coeff)


def _reflected(k: int, pairs, q: Fraction) -> Fraction:
    """prod_i C(n_i,k)**m_i sum_j C(kM,j) (-1)**j E_{T-kM+j,1/q}, or
    2 + E_{T,1/q} when kM = 0; the route's domain is T > kM."""
    total = sum(n * m for n, m in pairs)
    kM = k * sum(m for _, m in pairs)
    if total <= kM:
        raise DomainError("the reflected route needs T > kM (sum m_i n_i > k sum m_i)")
    if kM == 0:
        return 2 + euler_number(total, 1 / q)
    coeff = math.prod(binomial_coeff(n, k) ** m for n, m in pairs)
    return moment(total - kM, kM, 1 / q, coeff)


class IntegralInstance(FrozenRecord):
    """One power-product moment: prod_i B_{k,n_i}**m_i at a fixed rational q.

    ``degrees`` holds the (n_i, m_i) pairs.  An instance satisfies the input
    rule of the moment forms (``_checked``), so the power-product moments
    take it as it is.
    """

    __slots__ = ("k", "degrees", "q")

    def __init__(self, k: int, degrees: tuple[tuple[int, int], ...], q: Fraction):
        degrees = tuple((int(n), int(m)) for n, m in degrees)
        self._init(k, degrees, _checked(k, degrees, q))

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
    pairs = ((n, 1),)
    return _direct(k, pairs, _checked(k, pairs, q))


def integral_basis_reflected(k: int, n: int, q) -> Fraction:
    """The same moment routed through the substitution u -> 1 - u.

    Lands on E-values at the reciprocal parameter: 2 + E_{n,1/q} for k = 0,
    else C(n,k) sum_j C(k,j) (-1)**(k+j) E_{n-j,1/q}.  Requires n > k so
    every exponent that meets the complement rule stays positive.  Must
    equal ``integral_basis(k, n, q)``.  Called at 1/q it gives the printed
    form, false in general: the printed value at k = 1, n = 3, q = 1/2 is
    this function at q = 2, -4/3, where the moment is 2/15.
    """
    pairs = ((n, 1),)
    return _reflected(k, pairs, _checked(k, pairs, q))


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
    pairs = tuple((int(n), 1) for n in ns)
    q = _checked(k, pairs, q)
    if method == "direct":
        return _direct(k, pairs, q)
    if method == "reflected":
        return _reflected(k, pairs, q)
    raise DomainError(f"unknown method: {method!r}")


def integral_power_product(instance: IntegralInstance) -> Fraction:
    """Reflected-route moment of prod_i B_{k,n_i}**m_i.

    With T = sum m_i n_i, M = sum m_i and kM = k*M, evaluates
    prod_i C(n_i,k)**m_i sum_j C(kM,j) (-1)**(kM-j) (2 + E_{T-j,1/q}); the
    additive 2 cancels under the alternating sum whenever kM > 0.  Needs
    T > kM.  Cross-checked against ``integral_power_product_direct``.
    """
    return _reflected(instance.k, instance.degrees, instance.q)


def integral_power_product_direct(instance: IntegralInstance) -> Fraction:
    """Direct u-expansion of the power-product moment (oracle route):
    prod_i C(n_i,k)**m_i sum_j C(T-kM,j) (-1)**j E_{j+kM,q}."""
    return _direct(instance.k, instance.degrees, instance.q)


def fermionic_basis_sum(k: int, n: int, q, p: int, level: int) -> Fraction:
    """Truncated alternating sum of the basis integrand at u = [x]_q.

    Independent p-adic oracle for ``integral_basis``: the valuation of the
    difference must be at least the truncation level in the convergence
    regime |1-q|_p < 1, |q|_p <= 1.  The sum is linear in the integrand, so
    it expands over the monomial coefficients c_l of the basis member as
    sum_l c_l ``fermionic_sum(l, q, p, level)``.
    """
    q = to_rational(q)
    require_nonnegative(k, "k")
    require_nonnegative(n, "n")
    require_padic_convergence(q, p, level)
    terms = enumerate(basis_upoly((k, n)).coeffs)
    return sum((c * fermionic_sum(l, q, p, level) for l, c in terms if c), Fraction(0))
