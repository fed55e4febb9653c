import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbernstein.bernstein import (
    BernsteinIndex,
    basis_derivative,
    basis_eval_exact,
    basis_eval_real,
    basis_upoly,
    decasteljau_eval,
    degree_elevate,
    generating_coeffs,
    monomial_in_basis,
    monomial_samples,
    operator_apply,
    operator_eval_real,
)
from qbernstein.kernel import DomainError, binomial_coeff
from qbernstein.qcore import q_number_real, stirling2
from qbernstein.upoly import U, UPoly

_small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _list_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def brute_expansion(k, n):
    """Oracle: expand C(n,k) u^k (1-u)^(n-k) by plain list convolution."""
    if k < 0 or n < k:
        return UPoly.zero()
    poly = [Fraction(binomial_coeff(n, k))]
    poly = _list_mul(poly, [Fraction(0)] * k + [Fraction(1)])
    for _ in range(n - k):
        poly = _list_mul(poly, [Fraction(1), Fraction(-1)])
    return UPoly(poly)


class TestBasisEval:
    def test_exact_examples(self):
        assert basis_eval_exact(BernsteinIndex(1, 2), Fraction(1, 3)) == Fraction(4, 9)
        assert basis_eval_exact((3, 2), Fraction(1, 5)) == 0  # out of range
        assert basis_eval_exact((-1, 4), Fraction(1, 5)) == 0

    def test_partition_of_unity_pointwise(self):
        for n in range(11):
            total = sum(basis_eval_exact((k, n), Fraction(1, 3)) for k in range(n + 1))
            assert total == 1

    @given(_small_fraction, st.integers(0, 8))
    def test_eval_agrees_with_upoly(self, u, n):
        for k in range(n + 1):
            assert basis_eval_exact((k, n), u) == basis_upoly((k, n))(u)

    def test_real_binary_channel_value(self):
        # two-or-more-errors probability for a triple-redundancy channel
        value = basis_eval_real((2, 3), 0.001, 1.0) + basis_eval_real((3, 3), 0.001, 1.0)
        assert abs(value - 2.998e-6) <= 1e-9

    def test_real_examples(self):
        for q in (0.5, 2.0):
            assert basis_eval_real((0, 5), 0.0, q) == pytest.approx(1.0, abs=1e-15)
        assert basis_eval_real((1, 2), 0.5, 0.5) == pytest.approx(
            0.4852813742385703, abs=1e-12
        )

    def test_real_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            basis_eval_real((1, 2), 0.5, 0.0)

    @pytest.mark.parametrize("k", [0, 700, 1000, 2000])
    def test_real_past_float_binomials_matches_exact(self, k):
        # C(2000, 700) and C(2000, 1000) exceed the float range
        n, x, q = 2000, 0.3, 0.5
        u = Fraction(q_number_real(x, q))
        exact = float(binomial_coeff(n, k) * u**k * (1 - u) ** (n - k))
        assert basis_eval_real((k, n), x, q) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("x, q", [(-0.05, 0.5), (1.05, 0.9), (0.0, 0.5), (1.0, 1.0)])
    @pytest.mark.parametrize("k", [540, 541])
    def test_real_past_float_binomials_signs_and_edges(self, x, q, k):
        # u < 0, u > 1, u = 0 and u = 1 at n = 1100, where C(n, k) > 1e308
        n = 1100
        u = Fraction(x if q == 1 else q_number_real(x, q))
        exact = float(binomial_coeff(n, k) * u**k * (1 - u) ** (n - k))
        value = basis_eval_real((k, n), x, q)
        assert value == pytest.approx(exact, rel=1e-9, abs=0.0)
        assert math.copysign(1.0, value) == math.copysign(1.0, exact) or exact == 0.0

    def test_real_keeps_the_float_binomial_product_bit_for_bit(self):
        for n, k, x, q in ((1000, 500, 0.3, 0.5), (1029, 514, 0.41, 0.8), (7, 3, 0.37, 1.0)):
            u = q_number_real(x, q) if q != 1 else x
            want = binomial_coeff(n, k) * u**k * (1.0 - u) ** (n - k)
            assert basis_eval_real((k, n), x, q) == want

    @pytest.mark.parametrize(
        "k, n, x, q", [(514, 1029, 1.5, 1.0), (600, 1000, 1.3, 1.0), (514, 1029, 2.0, 0.5)]
    )
    def test_real_where_the_float_product_overflows_matches_exact(self, k, n, x, q):
        # C(n, k) fits in a float, but C(n, k) * u**k does not
        u = Fraction(x if q == 1 else q_number_real(x, q))
        assert 1 < u < 2
        exact = float(binomial_coeff(n, k) * u**k * (1 - u) ** (n - k))
        assert basis_eval_real((k, n), x, q) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize(
        "k, n, x, want",
        [
            (0, 3, math.inf, -math.inf),
            (3, 3, math.inf, math.inf),
            (1, 3, -math.inf, -math.inf),
            (0, 2, -math.inf, math.inf),
        ],
    )
    def test_real_infinite_u_keeps_its_signed_infinity(self, k, n, x, want):
        assert basis_eval_real((k, n), x, 1.0) == want

    def test_real_unrepresentable_value_still_overflows(self):
        with pytest.raises(OverflowError):
            basis_eval_real((1000, 2000), 3.0, 1.0)

    def test_classical_limit_grid(self):
        q = 1 - 1e-6
        for n in range(7):
            for k in range(n + 1):
                for i in range(11):
                    x = i / 10
                    classical = binomial_coeff(n, k) * x**k * (1 - x) ** (n - k)
                    assert abs(basis_eval_real((k, n), x, q) - classical) <= 1e-4

    def test_symmetry_real_grid(self):
        for q in (0.3, 0.7, 1.5):
            for n in range(7):
                for k in range(n + 1):
                    for i in range(11):
                        x = i / 10
                        lhs = basis_eval_real((n - k, n), 1.0 - x, 1.0 / q)
                        rhs = basis_eval_real((k, n), x, q)
                        assert abs(lhs - rhs) <= 1e-12


def test_exact_binary_channel_value():
    # two or more errors among r = 3 sends at error rate xi: B_{2,3} + B_{3,3}
    # is the binomial law 3 xi^2 (1 - xi) + xi^3, exactly
    xi = Fraction(1, 1000)
    value = basis_eval_exact((2, 3), xi) + basis_eval_exact((3, 3), xi)
    assert value == 3 * xi**2 * (1 - xi) + xi**3 == Fraction(1499, 500000000)


class TestBasisUPoly:
    def test_examples(self):
        assert basis_upoly((1, 2)).coeffs == (Fraction(0), Fraction(2), Fraction(-2))
        assert basis_upoly((0, 1)).coeffs == (Fraction(1), Fraction(-1))
        assert basis_upoly((2, 2)).coeffs == (Fraction(0), Fraction(0), Fraction(1))
        assert basis_upoly((3, 2)) == UPoly.zero()

    def test_matches_brute_expansion(self):
        for n in range(13):
            for k in range(n + 1):
                assert basis_upoly((k, n)) == brute_expansion(k, n)

    def test_printed_variant_fails_at_the_documented_instance(self):
        # the counterexample suite's instance: at n = 4, k = 1, l = 2 the
        # printed form has -8
        assert basis_upoly((1, 4)).coeff(2) == Fraction(-12)
        # the misprint is visible from n = 2 on: 2u - 4u^2 printed for k = 1
        assert basis_upoly((1, 2)) == UPoly((0, 2, -2))

    @pytest.mark.parametrize("n", range(25))
    def test_printed_variant_agrees_only_at_k_equal_n_and_at_0_1(self, n):
        # the printed coefficients (-1)**(l-k) C(l,k) C(n,k) match the
        # corrected ones only where C(n,l) = C(n,k) for every l >= k
        for k in range(n + 1):
            signs = [(-1) ** (l - k) * math.comb(l, k) for l in range(k, n + 1)]
            printed = UPoly.from_numerators([0] * k + [s * math.comb(n, k) for s in signs])
            assert (printed == basis_upoly((k, n))) == (k == n or (k, n) == (0, 1))

    def test_partition_of_unity_as_polynomials(self):
        for n in range(17):
            total = sum((basis_upoly((k, n)) for k in range(n + 1)), UPoly.zero())
            assert total == UPoly.one()

    def test_degree_recurrence(self):
        # (1-u) B_{k,n-1} + u B_{k-1,n-1} = B_{k,n}
        w = UPoly((1, -1))
        for n in range(1, 13):
            for k in range(n + 1):
                lhs = w * basis_upoly((k, n - 1)) + U * basis_upoly((k - 1, n - 1))
                assert lhs == basis_upoly((k, n))

    def test_symmetry_under_u_reflection(self):
        w = UPoly((1, -1))
        for n in range(13):
            for k in range(n + 1):
                assert basis_upoly((n - k, n)).compose(w) == basis_upoly((k, n))

    def test_neighbor_ratio_multiplicative(self):
        # ((n-k+1)/k) u B_{k-1,n} = (1-u) B_{k,n}
        w = UPoly((1, -1))
        for n in range(1, 11):
            for k in range(1, n + 1):
                lhs = Fraction(n - k + 1, k) * U * basis_upoly((k - 1, n))
                assert lhs == w * basis_upoly((k, n))


class TestDegreeElevation:
    def test_first_example(self):
        terms = degree_elevate((0, 1))
        assert terms[0] == (Fraction(1), BernsteinIndex(0, 2))
        assert terms[1] == (Fraction(1, 2), BernsteinIndex(1, 2))
        rebuilt = sum((c * basis_upoly(i) for c, i in terms), UPoly.zero())
        assert rebuilt == UPoly((1, -1))

    def test_top_index_telescopes(self):
        terms = degree_elevate((3, 3))
        rebuilt = sum((c * basis_upoly(i) for c, i in terms), UPoly.zero())
        assert rebuilt == UPoly.monomial(3)

    def test_exhaustive_upoly_equality(self):
        for n in range(11):
            for k in range(n + 1):
                rebuilt = sum(
                    (c * basis_upoly(i) for c, i in degree_elevate((k, n))), UPoly.zero()
                )
                assert rebuilt == basis_upoly((k, n))


class TestMonomialInBasis:
    def test_examples(self):
        weights = monomial_in_basis(1, 2)
        assert weights == [Fraction(0), Fraction(1, 2), Fraction(1)]
        assert monomial_in_basis(2, 2) == [Fraction(0), Fraction(0), Fraction(1)]

    def test_zeroth_is_partition_of_unity(self):
        for n in range(1, 9):
            assert monomial_in_basis(0, n) == [Fraction(1)] * (n + 1)

    def test_reconstructs_monomials(self):
        for n in range(13):
            for j in range(n + 1):
                weights = monomial_in_basis(j, n)
                total = sum(
                    (weights[k] * basis_upoly((k, n)) for k in range(n + 1)), UPoly.zero()
                )
                assert total == UPoly.monomial(j)

    def test_rejects_j_above_n(self):
        with pytest.raises(DomainError):
            monomial_in_basis(3, 2)


class TestDeCasteljau:
    def test_constant_and_linear(self):
        assert decasteljau_eval([1, 1, 1], Fraction(2, 7)) == 1
        assert decasteljau_eval([Fraction(0), Fraction(1, 2), Fraction(1)], Fraction(1, 3)) == Fraction(1, 3)

    def test_unit_vectors_reproduce_the_basis(self):
        u = Fraction(2, 5)
        for n in range(7):
            for k in range(n + 1):
                unit = [Fraction(int(i == k)) for i in range(n + 1)]
                assert decasteljau_eval(unit, u) == basis_eval_exact((k, n), u)

    @given(st.lists(_small_fraction, min_size=1, max_size=8), _small_fraction)
    def test_matches_direct_sum(self, coeffs, u):
        n = len(coeffs) - 1
        direct = sum(
            (c * basis_eval_exact((k, n), u) for k, c in enumerate(coeffs)), Fraction(0)
        )
        assert decasteljau_eval(coeffs, u) == direct

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            decasteljau_eval([], Fraction(1, 2))


class TestOperator:
    def test_reproduces_one_and_u(self):
        for n in range(1, 13):
            ones = [Fraction(1)] * (n + 1)
            linear = [Fraction(k, n) for k in range(n + 1)]
            for u in (Fraction(1, 3), Fraction(2, 5)):
                for method in ("direct", "monomial", "difference"):
                    assert operator_apply(ones, u, method) == 1
                    assert operator_apply(linear, u, method) == u

    def test_square_at_degree_two(self):
        # with f = t^2 and n = 2 the value is (u + u^2)/2 for every u
        for u in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 4)):
            got = operator_apply(monomial_samples(2, 2), u)
            assert got == (u + u**2) / 2

    def test_methods_agree_on_monomials(self):
        for m in range(7):
            for n in range(1, 13):
                samples = monomial_samples(m, n)
                for u in (Fraction(1, 3), Fraction(2, 5)):
                    direct = operator_apply(samples, u, "direct")
                    assert operator_apply(samples, u, "monomial") == direct
                    assert operator_apply(samples, u, "difference") == direct

    @settings(max_examples=50)
    @given(st.lists(_small_fraction, min_size=1, max_size=9), _small_fraction)
    def test_methods_agree_on_random_samples(self, samples, u):
        direct = operator_apply(samples, u, "direct")
        assert operator_apply(samples, u, "monomial") == direct
        assert operator_apply(samples, u, "difference") == direct

    def test_stirling_bridge(self):
        # n^m * operator(t^m) = sum_k C(n,k) u^k k! s(m,k)
        for m in range(7):
            for n in range(1, 11):
                for u in (Fraction(1, 3), Fraction(2, 5)):
                    lhs = n**m * operator_apply(monomial_samples(m, n), u)
                    rhs = sum(
                        binomial_coeff(n, k) * u**k * math.factorial(k) * stirling2(m, k)
                        for k in range(n + 1)
                    )
                    assert lhs == rhs

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            operator_apply([], Fraction(1, 2))
        with pytest.raises(DomainError):
            operator_apply([1, 2], Fraction(1, 2), method="fancy")

    def test_real_path_matches_exact_at_rational_u(self):
        samples = monomial_samples(2, 4)
        q = 0.5
        x = 0.5
        from qbernstein.qcore import q_number_real

        u = Fraction(q_number_real(x, q)).limit_denominator(10**12)
        exact = operator_apply(samples, u)
        assert operator_eval_real(samples, x, q) == pytest.approx(float(exact), rel=1e-9)


class TestGeneratingSeries:
    def test_matches_basis_values(self):
        for k in range(5):
            for u in (Fraction(1, 3), Fraction(2, 5)):
                coeffs = generating_coeffs(k, u, 10)
                for m in range(11):
                    assert coeffs[m] == basis_eval_exact((k, m), u)

    def test_vanishes_below_k(self):
        coeffs = generating_coeffs(3, Fraction(1, 3), 10)
        assert coeffs[:3] == [0, 0, 0]

    def test_order_zero(self):
        assert generating_coeffs(0, Fraction(2, 5), 0) == [Fraction(1)]

    def test_specific_value(self):
        assert generating_coeffs(1, Fraction(1, 3), 2)[2] == Fraction(4, 9)


class TestDerivative:
    def test_matches_central_differences(self):
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

    def test_frozen_values(self):
        # central-difference oracle gave -0.33637... for this instance
        assert basis_derivative((1, 2), 0.5, 0.5) == pytest.approx(
            -0.3363714163317203, abs=1e-10
        )
        # at x = 0 the k=0, n=1 derivative is -q^x log q / (q-1) = -2 log 2
        assert basis_derivative((0, 1), 0.0, 0.5) == pytest.approx(
            -2 * math.log(2), abs=1e-12
        )

    def test_classical_limit(self):
        for n in range(7):
            for k in range(n + 1):
                for i in range(1, 10):
                    x = i / 10
                    near = basis_derivative((k, n), x, 1 - 1e-9)
                    classical = basis_derivative((k, n), x, 1.0)
                    assert abs(near - classical) <= 1e-6

    def test_degree_zero_is_flat(self):
        assert basis_derivative((0, 0), 0.3, 0.5) == 0.0

    def test_past_float_binomials(self):
        # n (B_{k-1,n-1} - B_{k,n-1}) times the prefactor, both past the float range
        n, k, x, q = 2001, 700, 0.3, 0.5
        u = Fraction(q_number_real(x, q))
        left = binomial_coeff(n - 1, k - 1) * u ** (k - 1) * (1 - u) ** (n - k)
        right = binomial_coeff(n - 1, k) * u**k * (1 - u) ** (n - 1 - k)
        prefactor = math.log(q) / (q - 1.0) * q**x
        want = n * float(left - right) * prefactor
        assert basis_derivative((k, n), x, q) == pytest.approx(want, rel=1e-9)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            basis_derivative((1, 2), 0.5, -0.5)


_FLOAT_PATH = {
    "basis_eval_real": lambda x, q: basis_eval_real((1, 2), x, q),
    "basis_eval_real-vanishing": lambda x, q: basis_eval_real((3, 2), x, q),
    "basis_derivative": lambda x, q: basis_derivative((1, 2), x, q),
    "basis_derivative-constant": lambda x, q: basis_derivative((0, 0), x, q),
    "q_number_real": q_number_real,
}


@pytest.mark.parametrize(
    "x, q", [(0.5, math.nan), (0.5, math.inf), (0.5, -math.inf), (0.5, 0.0), (math.nan, 0.5)]
)
@pytest.mark.parametrize("name", sorted(_FLOAT_PATH))
def test_float_path_needs_finite_positive_q_and_a_number_x(name, x, q):
    with pytest.raises(DomainError):
        _FLOAT_PATH[name](x, q)


@pytest.mark.parametrize("name", sorted(_FLOAT_PATH))
def test_basis_float_path_takes_an_infinite_x(name):
    assert not math.isnan(_FLOAT_PATH[name](math.inf, 0.5))
