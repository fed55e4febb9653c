"""End-to-end acceptance suite.

One test per criterion, each at its stated tolerance (exact checks use zero
tolerance), printing a PASS line on completion.  Run verbosely with

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from qbernstein.bernstein import (
    basis_derivative,
    basis_eval_exact,
    basis_eval_real,
    basis_upoly,
    degree_elevate,
    generating_coeffs,
    monomial_in_basis,
    monomial_samples,
    operator_apply,
)
from qbernstein.euler import complement_moment, euler_closed, euler_number, euler_table, fermionic_sum
from qbernstein.integrals import integral_direct, integral_reflected
from qbernstein.kernel import binomial_coeff, padic_valuation
from qbernstein.qcore import stirling2
from qbernstein.stirling import q_stirling2, qstirling_expansion_upoly
from qbernstein.upoly import U, UPoly

QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4), Fraction(3))
HALF = Fraction(1, 2)


def _done(label):
    print(f"PASS  {label}")


def test_c01_binary_channel_value():
    value = basis_eval_real((2, 3), 0.001, 1.0) + basis_eval_real((3, 3), 0.001, 1.0)
    assert abs(value - 2.998e-6) <= 1e-9
    _done("criterion 01: triple-redundancy channel error value 2.998e-6")


def test_c02_exact_polynomial_suite():
    start = time.perf_counter()
    w = UPoly((1, -1))  # 1 - u
    for n in range(13):
        members = [basis_upoly((k, n)) for k in range(n + 1)]
        # partition of unity
        assert sum(members, UPoly.zero()) == UPoly.one()
        for k in range(n + 1):
            b = members[k]
            # degree recurrence
            if n >= 1:
                assert w * basis_upoly((k, n - 1)) + U * basis_upoly((k - 1, n - 1)) == b
            # symmetry under u -> 1 - u
            assert basis_upoly((n - k, n)).compose(w) == b
            # degree elevation
            assert sum((c * basis_upoly(i) for c, i in degree_elevate((k, n))), UPoly.zero()) == b
            # corrected monomial expansion against brute-force multiplication
            brute = binomial_coeff(n, k) * UPoly.monomial(k) * w ** (n - k)
            assert b == brute
            # neighbor ratio, multiplicative form
            if 1 <= k:
                assert Fraction(n - k + 1, k) * U * basis_upoly((k - 1, n)) == w * b
        # monomial representation in the basis
        for j in range(n + 1):
            weights = monomial_in_basis(j, n)
            assert sum((weights[k] * basis_upoly((k, n)) for k in range(n + 1)), UPoly.zero()) == UPoly.monomial(j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exact suite took {elapsed:.2f}s"
    _done("criterion 02: exact polynomial suite, k <= n <= 12, zero tolerance")


def test_c03_operator_equivalence():
    start = time.perf_counter()
    us = (Fraction(1, 3), Fraction(2, 5))
    for m in range(7):
        for n in range(1, 13):
            samples = monomial_samples(m, n)
            for u in us:
                direct = operator_apply(samples, u, "direct")
                assert operator_apply(samples, u, "monomial") == direct
                assert operator_apply(samples, u, "difference") == direct
    rng = random.Random(424243)
    for _ in range(20):
        n = rng.randint(1, 12)
        samples = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        for u in us:
            direct = operator_apply(samples, u, "direct")
            assert operator_apply(samples, u, "monomial") == direct
            assert operator_apply(samples, u, "difference") == direct
    # moment bridge to k! s(m,k)
    for m in range(7):
        for n in range(1, 13):
            for u in us:
                lhs = n**m * operator_apply(monomial_samples(m, n), u)
                rhs = sum(
                    binomial_coeff(n, k) * u**k * math.factorial(k) * stirling2(m, k)
                    for k in range(n + 1)
                )
                assert lhs == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"operator suite took {elapsed:.2f}s"
    _done("criterion 03: operator route equivalence and Stirling bridge, exact")


def test_c04_euler_consistency():
    for q in QS:
        table = euler_table(q, 20)
        for n in range(21):
            assert euler_closed(n, q) == table[n]
    assert euler_number(1, HALF) == Fraction(-2, 3)
    assert euler_number(4, HALF) == Fraction(464, 765)
    assert euler_number(4, Fraction(2)) == Fraction(-29, 765)
    _done("criterion 04: E-number closed form vs recurrence, n <= 20, zero tolerance")


def test_c05_complement_moment_corrected_and_printed():
    for q in QS:
        for n in range(1, 13):
            assert complement_moment(n, q) == 2 + euler_number(n, 1 / q)
    # the printed (non-reflected) claim must fail at n = 1, q = 1/2
    assert complement_moment(1, HALF) == Fraction(5, 3)
    assert 2 + euler_number(1, HALF) == Fraction(4, 3)
    assert complement_moment(1, HALF) != 2 + euler_number(1, HALF)
    _done("criterion 05: complement moment reflects to 1/q; printed form fails 5/3 vs 4/3")


def test_c06_product_moments_corrected():
    start = time.perf_counter()
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4)):
        for s in range(1, 4):
            for ns in combinations_with_replacement(range(1, 6), s):
                for k in range(3):
                    if sum(ns) <= s * k:
                        continue
                    pairs = tuple((n, 1) for n in ns)
                    assert integral_direct(k, pairs, q) == integral_reflected(k, pairs, q)
    assert integral_direct(1, ((2, 1), (2, 1)), HALF) == Fraction(-16, 255)
    assert integral_reflected(1, ((2, 1), (2, 1)), HALF) == Fraction(-16, 255)
    # separating instance for the misprinted parameter
    assert integral_reflected(1, ((3, 1),), HALF) == Fraction(2, 15)
    assert integral_direct(1, ((3, 1),), HALF) == Fraction(2, 15)
    assert integral_reflected(1, ((3, 1),), 1 / HALF) == Fraction(-4, 3)  # printed: q for 1/q
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"product-moment suite took {elapsed:.2f}s"
    _done("criterion 06: product moments direct = reflected; -16/255 anchor; 2/15 vs -4/3")


def test_c07_padic_oracle():
    start = time.perf_counter()
    q = Fraction(4)
    assert fermionic_sum(1, q, 3, 1) == 4
    assert fermionic_sum(1, q, 3, 2) == 17476
    assert padic_valuation(fermionic_sum(1, q, 3, 1) - euler_number(1, q), 3) == 1
    assert padic_valuation(fermionic_sum(1, q, 3, 2) - euler_number(1, q), 3) == 2
    for n in range(5):
        limit = euler_number(n, q)
        previous = None
        for level in range(1, 6):
            v = padic_valuation(fermionic_sum(n, q, 3, level) - limit, 3)
            assert v >= level
            if previous is not None:
                # exact agreement (infinite valuation) also counts as growth
                assert v > previous or v == math.inf
            previous = v
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"p-adic oracle took {elapsed:.2f}s"
    _done("criterion 07: truncated-sum valuations strictly increasing and >= level")


def test_c08_derivative_checks():
    h = 1e-5
    for q in (0.3, 0.7):
        for n in range(7):
            for k in range(n + 1):
                for i in range(1, 10):
                    x = i / 10
                    d = basis_derivative((k, n), x, q)
                    fd = (
                        basis_eval_real((k, n), x + h, q)
                        - basis_eval_real((k, n), x - h, q)
                    ) / (2 * h)
                    scale = max(abs(d), abs(fd))
                    assert abs(d - fd) <= 1e-6 * scale or d == fd == 0.0
    q_near = 1 - 1e-6
    for n in range(7):
        for k in range(n + 1):
            for i in range(1, 10):
                x = i / 10
                assert abs(basis_derivative((k, n), x, q_near) - basis_derivative((k, n), x, 1.0)) <= 1e-4
    _done("criterion 08: derivative matches finite differences (rel 1e-6) and classical limit")


def test_c09_qstirling_suite():
    for q in QS:
        for n in range(9):
            assert qstirling_expansion_upoly(n, q) == UPoly.monomial(n)
            for j in range(n + 1):
                weights = monomial_in_basis(j, n)
                combo = sum(
                    (weights[k] * basis_upoly((k, n)) for k in range(n + 1)), UPoly.zero()
                )
                assert combo == qstirling_expansion_upoly(j, q)
        assert q_stirling2(3, 2, q) == 2 + q
    for n in range(11):
        for k in range(n + 1):
            assert q_stirling2(n, k, Fraction(1)) == stirling2(n, k)
    _done("criterion 09: q-Stirling expansion of u^n, basis bridge, classical reduction")


def test_c10_generating_series():
    for k in range(5):
        for u in (Fraction(1, 3), Fraction(2, 5)):
            coeffs = generating_coeffs(k, u, 10)
            for m in range(11):
                assert coeffs[m] == basis_eval_exact((k, m), u)
    _done("criterion 10: generating-series coefficients equal basis values, zero tolerance")


def test_c11_cli_verify_all():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qbernstein.cli", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "result: PASS" in proc.stdout
    assert elapsed < 10.0, f"verify --suite all took {elapsed:.2f}s"
    _done(f"criterion 11: qb verify --suite all clean in {elapsed:.2f}s (< 10s)")
