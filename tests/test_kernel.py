import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbernstein.kernel import (
    DomainError,
    binomial_coeff,
    format_rational,
    is_odd_prime,
    padic_valuation,
    parse_rational,
    require_padic_convergence,
    to_rational,
)


def test_parse_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/6") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("+5/10") == Fraction(1, 2)
    # typographic minus is tolerated
    assert parse_rational("−2/3") == Fraction(-2, 3)


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/", "/2", "2/-3", "1//2", "1 / 2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(DomainError):
        parse_rational("1/0")


def test_format_canonical():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-6, 3)) == "-2"
    assert format_rational(Fraction(0, 5)) == "0"
    assert format_rational(7) == "7"


@given(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.fractions(),
        st.integers().map(Fraction),  # integral Fractions
    )
)
def test_format_is_str_of_fraction(value):
    assert format_rational(value) == str(Fraction(value))


@given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
def test_format_parse_roundtrip(num, den):
    r = Fraction(num, den)
    assert parse_rational(format_rational(r)) == r


def test_to_rational_refuses_floats():
    with pytest.raises(TypeError):
        to_rational(0.5)


def test_padic_examples():
    assert padic_valuation(Fraction(21, 5), 3) == 1
    assert padic_valuation(Fraction(9, 2), 3) == 2
    assert padic_valuation(Fraction(0), 5) == math.inf
    assert padic_valuation(Fraction(5, 27), 3) == -3
    assert padic_valuation(Fraction(1), 7) == 0


@pytest.mark.parametrize("p", [2, 4, 9, 1, 0, -3, 15, 21])
def test_padic_rejects_bad_primes(p):
    with pytest.raises(DomainError):
        padic_valuation(Fraction(1), p)


def test_is_odd_prime():
    assert [p for p in range(30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


_nonzero = st.fractions(max_denominator=997).filter(lambda r: r != 0)


@given(_nonzero, _nonzero, st.sampled_from([3, 5, 7]))
def test_padic_is_multiplicative(a, b, p):
    assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


@pytest.mark.parametrize(
    "q, p, level, message",
    [
        (Fraction(4), 9, 1, "p must be an odd prime, got 9"),
        (Fraction(4), 3, 0, "level must be >= 1, got 0"),
        (Fraction(1, 3), 3, 1, "need |q|_p <= 1 and |1-q|_p < 1"),
        (Fraction(2), 3, 1, "need |q|_p <= 1 and |1-q|_p < 1"),
    ],
)
def test_padic_convergence_preconditions(q, p, level, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        require_padic_convergence(q, p, level)
    require_padic_convergence(Fraction(4), 3, 1)
    require_padic_convergence(Fraction(1), 5, 2)


def test_pascal_recurrence_exhaustive():
    for n in range(1, 31):
        for k in range(1, n):
            assert binomial_coeff(n, k) == binomial_coeff(n - 1, k - 1) + binomial_coeff(n - 1, k)


def test_binomial_values_and_edges():
    assert binomial_coeff(3, 2) == 3
    assert binomial_coeff(6, 3) == 20
    assert binomial_coeff(5, 0) == 1
    assert binomial_coeff(4, -1) == 0
    assert binomial_coeff(4, 7) == 0
    with pytest.raises(DomainError):
        binomial_coeff(-1, 0)
