from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from qbernstein.euler import complement_moment, euler_number
from qbernstein.integrals import (
    IntegralInstance,
    fermionic_basis_sum,
    integral_basis,
    integral_basis_reflected,
    integral_power_product,
    integral_power_product_direct,
    integral_product,
)
from qbernstein.kernel import DomainError, padic_valuation

SAMPLE_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4))
HALF = Fraction(1, 2)


class TestIntegralBasis:
    def test_examples(self):
        assert integral_basis(1, 2, HALF) == Fraction(-4, 5)  # 2 (E_1 - E_2)
        assert integral_basis(0, 1, HALF) == Fraction(5, 3)
        assert integral_basis(0, 1, HALF) == complement_moment(1, HALF)
        for n in range(7):
            assert integral_basis(n, n, HALF) == euler_number(n, HALF)

    def test_vanishes_above_degree(self):
        assert integral_basis(3, 2, HALF) == 0

    def test_linearity_partition(self):
        for q in SAMPLE_QS:
            for n in range(11):
                total = sum(integral_basis(k, n, q) for k in range(n + 1))
                assert total == 1

    def test_pole_rejected(self):
        for q in (Fraction(0), Fraction(1), Fraction(-1)):
            with pytest.raises(DomainError):
                integral_basis(1, 2, q)


class TestReflectedBasis:
    def test_examples(self):
        assert integral_basis_reflected(1, 3, HALF) == Fraction(2, 15)
        assert integral_basis(1, 3, HALF) == Fraction(2, 15)
        assert integral_basis_reflected(0, 2, HALF) == Fraction(31, 15)

    def test_agrees_with_direct_route(self):
        for q in SAMPLE_QS:
            for n in range(1, 11):
                for k in range(n):
                    assert integral_basis_reflected(k, n, q) == integral_basis(k, n, q)

    def test_requires_n_above_k(self):
        with pytest.raises(DomainError):
            integral_basis_reflected(2, 2, HALF)

    def test_printed_variant_is_false(self):
        # the separating instance: the printed form keeps q where 1/q belongs,
        # so it is the reflected route called at the reciprocal parameter
        printed = integral_basis_reflected(1, 3, 1 / HALF)
        assert printed == Fraction(-4, 3)
        assert printed != integral_basis(1, 3, HALF)


class TestIntegralProduct:
    def test_anchor_both_methods(self):
        assert integral_product(1, (2, 2), HALF, "direct") == Fraction(-16, 255)
        assert integral_product(1, (2, 2), HALF, "reflected") == Fraction(-16, 255)

    def test_k_zero_matches_complement(self):
        assert integral_product(0, (1, 1), HALF, "direct") == Fraction(31, 15)
        assert integral_product(0, (1, 1), HALF, "direct") == complement_moment(2, HALF)
        assert integral_product(0, (1, 1), HALF, "reflected") == 2 + euler_number(2, 2)

    def test_single_factor_reduces_to_basis(self):
        for q in SAMPLE_QS:
            for n in range(7):
                for k in range(n + 1):
                    assert integral_product(k, (n,), q, "direct") == integral_basis(k, n, q)

    def test_direct_vs_reflected_sweep(self):
        for q in SAMPLE_QS:
            for s in range(1, 4):
                for ns in combinations_with_replacement(range(1, 6), s):
                    for k in range(3):
                        if sum(ns) <= s * k:
                            continue
                        assert integral_product(k, ns, q, "direct") == integral_product(
                            k, ns, q, "reflected"
                        )

    def test_vanishing_factor(self):
        assert integral_product(3, (2, 5), HALF, "direct") == 0

    def test_reflected_precondition(self):
        with pytest.raises(DomainError):
            integral_product(2, (2, 2), HALF, "reflected")

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            integral_product(1, (2, 2), HALF, "fastest")

    def test_printed_variant(self):
        # coincidence instance: the misprint is numerically invisible here
        assert integral_product(1, (2, 2), 1 / HALF, "reflected") == Fraction(-16, 255)
        # separating instance: it is visible here
        assert integral_product(1, (1, 2), 1 / HALF, "reflected") == Fraction(4, 45)
        assert integral_product(1, (1, 2), HALF, "direct") == Fraction(-8, 9)

    def test_printed_k_zero_variant_is_false(self):
        printed = 2 + euler_number(2, HALF)
        assert printed == Fraction(26, 15)
        assert printed != integral_product(0, (1, 1), HALF, "direct")


class TestPowerProduct:
    def test_anchors(self):
        inst = IntegralInstance(1, ((2, 2),), HALF)
        assert integral_power_product(inst) == Fraction(-16, 255)
        assert integral_power_product_direct(inst) == Fraction(-16, 255)
        inst0 = IntegralInstance(0, ((1, 2),), HALF)
        assert integral_power_product(inst0) == Fraction(31, 15)

    def test_reduces_to_product_when_multiplicities_are_one(self):
        for q in SAMPLE_QS:
            for ns in ((2,), (1, 2), (2, 3), (1, 1, 2)):
                for k in range(3):
                    if sum(ns) <= len(ns) * k:
                        continue
                    inst = IntegralInstance(k, tuple((n, 1) for n in ns), q)
                    assert integral_power_product(inst) == integral_product(k, ns, q, "direct")

    def test_reflected_vs_direct_sweep(self):
        pool = [(n, m) for n in range(1, 4) for m in range(1, 3)]
        for q in SAMPLE_QS:
            for s in range(1, 3):
                for degrees in combinations_with_replacement(pool, s):
                    total = sum(n * m for n, m in degrees)
                    mult = sum(m for _, m in degrees)
                    for k in range(3):
                        if total <= k * mult:
                            continue
                        inst = IntegralInstance(k, degrees, q)
                        assert integral_power_product(inst) == integral_power_product_direct(inst)

    def test_precondition(self):
        with pytest.raises(DomainError):
            integral_power_product(IntegralInstance(2, ((2, 2),), HALF))

    def test_instance_validation(self):
        with pytest.raises(DomainError):
            IntegralInstance(1, (), HALF)
        with pytest.raises(DomainError):
            IntegralInstance(1, ((2, 0),), HALF)
        with pytest.raises(DomainError):
            IntegralInstance(-1, ((2, 1),), HALF)

    def test_printed_variant_separates(self):
        pairs = ((1, 1), (2, 1))
        printed = integral_power_product(IntegralInstance(1, pairs, 1 / HALF))
        assert printed != integral_power_product_direct(IntegralInstance(1, pairs, HALF))
        assert printed == Fraction(4, 45)


class TestFermionicOracle:
    def test_valuation_floor(self):
        q = Fraction(4)
        for n in range(4):
            for k in range(n + 1):
                moment = integral_basis(k, n, q)
                for level in range(1, 5):
                    gap = fermionic_basis_sum(k, n, q, 3, level) - moment
                    assert padic_valuation(gap, 3) >= level

    def test_degenerate_case_is_exact(self):
        # constant integrand: the truncated sum already equals the moment
        assert fermionic_basis_sum(0, 0, 4, 3, 2) == integral_basis(0, 0, Fraction(4))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            fermionic_basis_sum(0, 1, 2, 3, 1)
        with pytest.raises(DomainError):
            fermionic_basis_sum(0, 1, 4, 9, 1)
