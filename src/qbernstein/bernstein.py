"""The q-deformed Bernstein basis in the variable u = [x]_q.

With u = [x]_q and the complement rule [1-x]_{1/q} = 1 - u, every basis
member of degree n is C(n,k) u**k (1-u)**(n-k) evaluated at the q-number of
x, and the structural identities (partition of unity, degree recurrence,
symmetry, elevation, monomial conversions, operator forms) become exact
polynomial identities in u that hold for every q simultaneously.  Floating
evaluation and the x-derivative (which involves log q) live on a separate
real-valued path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .kernel import DomainError, binomial_coeff, to_rational
from .qcore import forward_differences, q_number_real
from .upoly import UPoly

__all__ = [
    "BernsteinIndex",
    "basis_derivative",
    "basis_eval_exact",
    "basis_eval_real",
    "basis_upoly",
    "basis_upoly_printed",
    "decasteljau_eval",
    "degree_elevate",
    "generating_coeffs",
    "monomial_in_basis",
    "monomial_samples",
    "operator_apply",
    "operator_eval_real",
]

OPERATOR_METHODS = ("direct", "monomial", "difference")


class BernsteinIndex(NamedTuple):
    k: int
    n: int


def basis_eval_exact(idx, u) -> Fraction:
    """C(n,k) u**k (1-u)**(n-k); identically zero when n < k.

    With u = s/t this is the one Fraction C(n,k) s**k (t-s)**(n-k) / t**n.
    """
    k, n = idx
    if k < 0 or n < k:
        return Fraction(0)
    u = to_rational(u)
    s, t = u.numerator, u.denominator
    return Fraction(math.comb(n, k) * s**k * (t - s) ** (n - k), t**n)


def basis_eval_real(idx, x: float, q: float) -> float:
    """Floating evaluation at u = [x]_q; q = 1 takes the classical limit u = x.

    Where C(n,k) fits in a float the value is C(n,k) * u**k * (1-u)**(n-k).
    Past that range u**k (1-u)**(n-k) underflows before C(n,k) can scale
    it, so the product is formed through logarithms instead; a value too
    large for a float raises OverflowError.
    """
    k, n = idx
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    if k < 0 or n < k:
        return 0.0
    u = float(x) if q == 1 else q_number_real(x, q)
    c = binomial_coeff(n, k)
    try:
        scale = float(c)
    except OverflowError:
        # Here 0 < k < n, since C(n,0) = C(n,n) = 1.
        if u == 0.0 or u == 1.0:
            return 0.0
        log_w = math.log1p(-u) if u < 1.0 else math.log(u - 1.0)
        value = math.exp(math.log(c) + k * math.log(abs(u)) + (n - k) * log_w)
        odd = k if u < 0.0 else n - k if u > 1.0 else 0  # the negative factor's power
        return -value if odd & 1 else value
    return scale * u**k * (1.0 - u) ** (n - k)


def basis_upoly(idx) -> UPoly:
    """Monomial form of a basis member: the coefficient of u**l is
    (-1)**(l-k) C(n,l) C(l,k) for k <= l <= n.

    A variant with C(l,k) C(n,k) coefficients circulates in print; it is
    wrong in general (first separating instance n = 4, k = 1, l = 2) and is
    kept only as ``basis_upoly_printed`` for the counterexample suite.
    """
    k, n = idx
    if k < 0 or n < k:
        return UPoly.zero()
    return UPoly.from_numerators(
        [0] * k
        + [(-1) ** (l - k) * math.comb(n, l) * math.comb(l, k) for l in range(k, n + 1)]
    )


def basis_upoly_printed(idx) -> UPoly:
    """Known-misprinted monomial expansion (C(l,k) C(n,k) coefficients).

    False in general; retained solely so the verifier can demonstrate the
    failure against the brute-force expansion.
    """
    k, n = idx
    if k < 0 or n < k:
        return UPoly.zero()
    return UPoly.from_numerators(
        [0] * k
        + [(-1) ** (l - k) * math.comb(l, k) * math.comb(n, k) for l in range(k, n + 1)]
    )


def decasteljau_eval(coeffs, u) -> Fraction:
    """Evaluate sum_k c_k B_{k,n} at u by repeated convex combination.

    Each round replaces c_k by (1-u) c_k + u c_{k+1}; after n rounds the
    single survivor equals the direct basis sum, exactly.
    """
    work = [to_rational(c) for c in coeffs]
    if not work:
        raise DomainError("coefficient list must be nonempty")
    u = to_rational(u)
    w = 1 - u
    while len(work) > 1:
        work = [w * a + u * b for a, b in zip(work, work[1:])]
    return work[0]


def basis_derivative(idx, x: float, q: float) -> float:
    """d/dx of a basis member on the floating path.

    Equals n (B_{k-1,n-1} - B_{k,n-1}) (log q / (q-1)) q**x with the
    convention B_{-1,m} = 0.  At q = 1 the prefactor tends to 1 and the
    classical derivative is returned.
    """
    k, n = idx
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    if n <= 0:
        return 0.0
    prefactor = 1.0 if q == 1 else (math.log(q) / (q - 1.0)) * q**x
    left = basis_eval_real((k - 1, n - 1), x, q)
    right = basis_eval_real((k, n - 1), x, q)
    return n * (left - right) * prefactor


def degree_elevate(idx):
    """Write B_{k,n} exactly in the degree-(n+1) basis.

    Returns the two weighted terms
    ((n+1-k)/(n+1), (k, n+1)) and ((k+1)/(n+1), (k+1, n+1)).
    """
    k, n = idx
    if k < 0 or n < 0:
        raise DomainError("indices must be nonnegative")
    den = n + 1
    return (
        (Fraction(n + 1 - k, den), BernsteinIndex(k, n + 1)),
        (Fraction(k + 1, den), BernsteinIndex(k + 1, n + 1)),
    )


def monomial_in_basis(j: int, n: int) -> list[Fraction]:
    """Coefficients c_k with sum_k c_k B_{k,n} = u**j; c_k = C(k,j)/C(n,j)."""
    if j < 0 or n < 0 or j > n:
        raise DomainError("need 0 <= j <= n")
    cnj = binomial_coeff(n, j)
    return [Fraction(binomial_coeff(k, j), cnj) for k in range(n + 1)]


def operator_apply(samples, u, method: str = "direct") -> Fraction:
    """Apply the degree-n operator sum_k f(k/n) B_{k,n} at u, exactly.

    ``samples`` holds f(0/n)..f(n/n).  Three algebraically equivalent routes
    are implemented so they can cross-check each other: ``direct`` sums
    against the basis, ``monomial`` expands in powers of u with alternating
    inner sums, ``difference`` contracts the inner sums to forward
    differences of the samples.  Every route runs on the integers
    F_k = L f(k/n), with L the least common denominator of the samples, and
    on u = s/t; its sum is L t**n times the value, and one Fraction is
    built at the end.
    """
    vals = [to_rational(s) for s in samples]
    if not vals:
        raise DomainError("samples must be nonempty")
    n = len(vals) - 1
    u = to_rational(u)
    if method not in OPERATOR_METHODS:
        raise DomainError(f"unknown operator method: {method!r}")
    lcd = math.lcm(*(f.denominator for f in vals))
    ints = [f.numerator * (lcd // f.denominator) for f in vals]
    s, t = u.numerator, u.denominator
    spow = [s**k for k in range(n + 1)]
    tpow = [t**k for k in range(n + 1)]
    if method == "direct":
        wpow = [(t - s) ** k for k in range(n + 1)]
        total = sum(
            f * math.comb(n, k) * spow[k] * wpow[n - k] for k, f in enumerate(ints)
        )
    else:
        if method == "monomial":
            deltas = [
                sum(math.comb(m, k) * (-1) ** (m - k) * ints[k] for k in range(m + 1))
                for m in range(n + 1)
            ]
        else:
            deltas = forward_differences(ints)
        total = sum(
            math.comb(n, m) * spow[m] * tpow[n - m] * d for m, d in enumerate(deltas)
        )
    return Fraction(total, lcd * tpow[n])


def operator_eval_real(samples, x: float, q: float) -> float:
    """Floating-path operator value at u = [x]_q (u = x when q = 1)."""
    vals = [float(s) for s in samples]
    if not vals:
        raise DomainError("samples must be nonempty")
    n = len(vals) - 1
    return sum(f * basis_eval_real((k, n), x, q) for k, f in enumerate(vals))


def monomial_samples(m: int, n: int) -> list[Fraction]:
    """The operator samples (k/n)**m for k = 0..n, with 0**0 = 1."""
    if m < 0 or n < 0:
        raise DomainError("indices must be nonnegative")
    if n == 0:
        return [Fraction(1) if m == 0 else Fraction(0)]
    return [Fraction(k, n) ** m for k in range(n + 1)]


def generating_coeffs(k: int, u, order: int) -> list[Fraction]:
    """Coefficients against t**m/m! (m = 0..order) of the basis generating
    series (t u)**k e**((1-u) t) / k!.

    Computed by genuinely multiplying out the truncated exponential series,
    so the result is an independent route to the basis values: entry m
    equals the degree-m basis member at u (zero for m < k).  This is also
    how the residue-extraction representation of the basis is discharged,
    since the series coefficient is exactly what that contour integral
    picks out.
    """
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    u = to_rational(u)
    w = 1 - u
    terms = max(order - k, 0)
    exp_c = [Fraction(1)]  # (1-u)**j / j!
    for j in range(1, terms + 1):
        exp_c.append(exp_c[-1] * w / j)
    lead = u**k / math.factorial(k)
    out: list[Fraction] = []
    fact_m = 1
    for m in range(order + 1):
        if m > 0:
            fact_m *= m
        if m < k:
            out.append(Fraction(0))
        else:
            out.append(lead * exp_c[m - k] * fact_m)
    return out
