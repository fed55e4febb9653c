"""Alternating-measure moments of q-Bernstein basis members and products.

Every value here is an exact rational expressed through q-Euler numbers.
The basis moment, the product moment and the power-product moment are one
formula: the moment of prod_i B_{k,n_i}**m_i, given as the (n_i, m_i)
pairs, with every multiplicity 1 for a product and the single pair (n, 1)
for a basis member.  That formula has two routes.  ``integral_direct``
expands the integrand in powers of u = [x]_q and reads off E-moments at q;
``integral_reflected`` rewrites the integrand through 1 - u and lands on
E-values at the reciprocal parameter 1/q.  The verifier checks their
equality as one family, ``integrals.direct_vs_reflected``.  Both routes
scale by the same prod_i C(n_i,k)**m_i, so a check decides the moment pair
(kM, T - kM) at q: the family has one entry per pair and q (360 at the
defaults), none where the coefficient is 0 (some n_i < k, both routes 0),
and the anchors ``integrals.anchor`` pin the coefficient.

``_checked`` owns the input rule of both routes (q off the poles 0, 1 and
-1, k >= 0, factors n_i >= 0 with m_i >= 1), and ``integral_reflected`` the
reflected route's domain T = sum m_i n_i > kM = k sum m_i.

The reflected forms that circulate in print keep the parameter q instead of
1/q.  Each printed form is therefore the corrected reflected route called
at the reciprocal parameter, and the counterexample section evaluates it
that way.  Some instances coincide numerically under both parameters (for
example the product with k = 1 and degrees (2, 2)), which is why the suites
always include a separating instance such as the single factor k = 1, n = 3
(``integrals.reflected_printed``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernstein import basis_upoly
from .euler import euler_number, fermionic_sum, moment
from .kernel import (
    DomainError,
    binomial_coeff,
    require_nonempty,
    require_nonnegative,
    require_padic_convergence,
    require_pole_free,
    to_rational,
)

__all__ = ["fermionic_basis_sum", "integral_direct", "integral_reflected"]


def _checked(k: int, pairs, q) -> tuple[tuple, Fraction]:
    """The pairs as a tuple and q as a Fraction, once q is off the poles,
    k >= 0, and there is at least one (n_i, m_i) pair, each with n_i >= 0
    and m_i >= 1.  The tuple lets a route read a one-shot iterable more
    than once."""
    q = require_pole_free(q)
    require_nonnegative(k, "k")
    pairs = tuple(pairs)
    require_nonempty(pairs, "the factor list")
    for n, m in pairs:
        if n < 0 or m < 1:
            raise DomainError("need n_i >= 0 and m_i >= 1")
    return pairs, q


def integral_direct(k: int, pairs, q) -> Fraction:
    """Moment of prod_i B_{k,n_i}**m_i by direct u-expansion:
    prod_i C(n_i,k)**m_i sum_j C(T-kM,j) (-1)**j E_{j+kM,q}, with
    T = sum m_i n_i and M = sum m_i.

    This route uses nothing beyond the definition of the E-moments, so it is
    the ground truth the reflected route is checked against.  Zero when some
    n_i < k (that factor vanishes).
    """
    pairs, q = _checked(k, pairs, q)
    coeff = math.prod(binomial_coeff(n, k) ** m for n, m in pairs)
    if coeff == 0:
        return Fraction(0)
    kM = k * sum(m for _, m in pairs)
    # T - kM >= 0 whenever the coefficient is nonzero
    return moment(kM, sum(n * m for n, m in pairs) - kM, q, coeff)


def integral_reflected(k: int, pairs, q) -> Fraction:
    """The same moment routed through the substitution u -> 1 - u:
    prod_i C(n_i,k)**m_i sum_j C(kM,j) (-1)**j E_{T-kM+j,1/q}, or
    2 + E_{T,1/q} when kM = 0.

    Needs T > kM, so every exponent that meets the complement rule stays
    positive.  Must equal ``integral_direct``.  Called at 1/q it gives the
    printed form, false in general: the printed value at k = 1, pairs
    ((3, 1),) and q = 1/2 is this route at q = 2, -4/3, where the moment is
    2/15; at pairs ((1, 1), (2, 1)) it is 4/45, where the moment is -8/9.
    """
    pairs, q = _checked(k, pairs, q)
    total = sum(n * m for n, m in pairs)
    kM = k * sum(m for _, m in pairs)
    if total <= kM:
        raise DomainError("the reflected route needs T > kM (sum m_i n_i > k sum m_i)")
    if kM == 0:
        return 2 + euler_number(total, 1 / q)
    coeff = math.prod(binomial_coeff(n, k) ** m for n, m in pairs)
    return moment(total - kM, kM, 1 / q, coeff)


def fermionic_basis_sum(k: int, n: int, q, p: int, level: int) -> Fraction:
    """Truncated alternating sum of the basis integrand at u = [x]_q.

    Independent p-adic oracle for ``integral_direct`` at the pairs
    ((n, 1),): the valuation of the difference must be at least the
    truncation level in the convergence regime |1-q|_p < 1, |q|_p <= 1.
    The sum is linear in the integrand, so it expands over the monomial
    coefficients c_l of the basis member as sum_l c_l
    ``fermionic_sum(l, q, p, level)``.
    """
    q = to_rational(q)
    require_nonnegative(k, "k")
    require_nonnegative(n, "n")
    require_padic_convergence(q, p, level)
    terms = enumerate(basis_upoly((k, n)).coeffs)
    return sum((c * fermionic_sum(l, q, p, level) for l, c in terms if c), Fraction(0))
