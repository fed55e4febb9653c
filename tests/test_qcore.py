from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbernstein.kernel import DomainError
from qbernstein.qcore import (
    forward_differences,
    forward_differences_binomial,
    gaussian_binomial,
    q_factorial,
    q_number_int,
    q_number_real,
    qbinom_upoly,
    stirling2,
)
from qbernstein.upoly import U, UPoly

SAMPLE_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4))


class TestQNumber:
    def test_examples(self):
        assert q_number_int(0, Fraction(1, 2)) == 0
        assert q_number_int(3, Fraction(1, 2)) == Fraction(7, 4)  # 1 + q + q^2
        assert q_number_int(-1, Fraction(1, 2)) == -2  # [-1]_q = -1/q
        assert q_number_int(5, 1) == 5  # limit value at q = 1

    def test_negative_x_needs_nonzero_q(self):
        with pytest.raises(DomainError):
            q_number_int(-2, Fraction(0))

    def test_addition_rule_exhaustive(self):
        # [a+b]_q = [a]_q + q^a [b]_q
        for q in SAMPLE_QS:
            for a in range(-10, 11):
                for b in range(-10, 11):
                    assert q_number_int(a + b, q) == q_number_int(a, q) + q**a * q_number_int(b, q)

    def test_real_examples(self):
        assert q_number_real(0.5, 0.5) == pytest.approx(0.5857864376269049, abs=1e-12)
        for q in (0.3, 0.8, 1.7):
            assert q_number_real(1.0, q) == pytest.approx(1.0, abs=1e-15)
        for x in (0.2, 0.9, 1.6):
            assert abs(q_number_real(x, 1 - 1e-9) - x) <= 1e-6

    def test_real_complement_identity(self):
        # [1-x]_{1/q} = 1 - [x]_q on a grid
        for q in (0.3, 0.7, 1.5):
            for i in range(11):
                x = i / 10
                lhs = q_number_real(1 - x, 1 / q)
                rhs = 1.0 - q_number_real(x, q)
                assert abs(lhs - rhs) <= 1e-12

    def test_real_domain_errors(self):
        with pytest.raises(DomainError):
            q_number_real(0.5, -1.0)
        with pytest.raises(DomainError):
            q_number_real(0.5, 0.0)
        with pytest.raises(DomainError):
            q_number_real(0.5, 1.0)


class TestQFactorial:
    def test_examples(self):
        assert q_factorial(0, Fraction(1, 2)) == 1
        assert q_factorial(3, Fraction(1, 2)) == Fraction(21, 8)  # 1 * 3/2 * 7/4
        assert q_factorial(4, 1) == 24

    def test_matches_product_of_q_numbers(self):
        for q in SAMPLE_QS:
            acc = Fraction(1)
            for i in range(1, 9):
                acc *= q_number_int(i, q)
                assert q_factorial(i, q) == acc

    def test_negative_k(self):
        with pytest.raises(DomainError):
            q_factorial(-1, Fraction(1, 2))


class TestGaussianBinomial:
    def test_examples(self):
        assert gaussian_binomial(2, 1, Fraction(1, 2)) == Fraction(3, 2)  # [2]_q
        assert gaussian_binomial(4, 2, Fraction(2)) == 35
        for n in range(6):
            assert gaussian_binomial(n, 0, Fraction(2, 3)) == 1
        assert gaussian_binomial(3, -1, Fraction(1, 2)) == 0
        assert gaussian_binomial(3, 5, Fraction(1, 2)) == 0

    def test_q_pascal_rule_exhaustive(self):
        # C_q(k,j) = C_q(k-1,j-1) + q^j C_q(k-1,j)
        for q in SAMPLE_QS:
            for k in range(1, 13):
                for j in range(k + 1):
                    assert gaussian_binomial(k, j, q) == gaussian_binomial(
                        k - 1, j - 1, q
                    ) + q**j * gaussian_binomial(k - 1, j, q)

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_symmetry(self, k, j):
        q = Fraction(2, 3)
        assert gaussian_binomial(k, j, q) == gaussian_binomial(k, k - j, q)

    def test_classical_limit(self):
        import math

        for k in range(9):
            for j in range(k + 1):
                assert gaussian_binomial(k, j, 1) == math.comb(k, j)

    def test_rejects_q_minus_one_on_nontrivial_range(self):
        with pytest.raises(DomainError):
            gaussian_binomial(3, 1, Fraction(-1))
        # trivial boundary cases do not touch the pole
        assert gaussian_binomial(3, 0, Fraction(-1)) == 1
        assert gaussian_binomial(3, 3, Fraction(-1)) == 1


class TestQBinomUPoly:
    def test_small_cases(self):
        q = Fraction(1, 2)
        assert qbinom_upoly(0, q) == UPoly.one()
        assert qbinom_upoly(1, q) == U
        assert qbinom_upoly(2, q) == Fraction(4, 3) * (U**2 - U)

    def test_classical_limit(self):
        # q = 1: u(u-1)(u-2)/6
        assert qbinom_upoly(3, 1) == U * (U - 1) * (U - 2) / 6

    def test_degree(self):
        for k in range(6):
            assert qbinom_upoly(k, Fraction(2, 3)).degree == k

    def test_interpolates_gaussian_binomials(self):
        # evaluating at u = [m]_q must give C_q(m, k) for every integer m
        for q in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(1)):
            for k in range(6):
                poly = qbinom_upoly(k, q)
                for m in range(9):
                    assert poly(q_number_int(m, q)) == gaussian_binomial(m, k, q)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            qbinom_upoly(2, Fraction(0))
        with pytest.raises(DomainError):
            qbinom_upoly(2, Fraction(-1))


class TestForwardDifferences:
    def test_examples(self):
        assert forward_differences([0, 1, 4]) == [0, 1, 2]
        assert forward_differences([5, 5, 5]) == [5, 0, 0]
        assert forward_differences([0, 1, 8, 27]) == [0, 1, 6, 6]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            forward_differences([])
        with pytest.raises(DomainError):
            forward_differences_binomial([])

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=8))
    def test_two_routes_agree(self, samples):
        assert forward_differences(samples) == forward_differences_binomial(samples)


class TestStirling2:
    def test_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for n in range(11):
            assert stirling2(n, n) == 1
        for m in range(1, 8):
            assert stirling2(m, 0) == 0
        assert stirling2(2, 5) == 0

    def test_recurrence_exhaustive(self):
        for m in range(1, 13):
            for k in range(1, m):
                assert stirling2(m, k) == k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            stirling2(-1, 0)
