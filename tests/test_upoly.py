import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qbernstein.upoly import U, UPoly
from qbernstein.verify import _show

_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_coeff_list = st.lists(_coeff, max_size=6)


def _convolve(a, b):
    # independent list-based product used as the multiplication oracle
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_trailing_zeros_trimmed():
    assert UPoly([1, 0, 0]).coeffs == (Fraction(1),)
    assert UPoly([0, 0]).coeffs == ()
    assert UPoly([]).coeffs == ()


def test_degree_sentinel():
    assert UPoly().degree == -math.inf
    assert UPoly.one().degree == 0
    assert U.degree == 1
    assert UPoly.monomial(4, 3).degree == 4


def test_scalar_equality_and_hash():
    assert UPoly([5]) == 5
    assert 5 == UPoly([5])
    assert UPoly() == 0
    assert UPoly([0, 1]) != 1
    assert hash(UPoly([1, 2])) == hash(UPoly([1, 2, 0]))


@given(_coeff_list, _coeff_list)
def test_mul_matches_convolution_oracle(a, b):
    assert UPoly(a) * UPoly(b) == UPoly(_convolve(a, b))


@given(_coeff_list, _coeff_list, _coeff_list)
def test_ring_axioms(a, b, c):
    pa, pb, pc = UPoly(a), UPoly(b), UPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa + UPoly() == pa
    assert pa * UPoly.one() == pa
    assert pa - pa == UPoly()


@given(_coeff_list, _coeff)
def test_evaluation_matches_naive_sum(coeffs, v):
    p = UPoly(coeffs)
    assert p(v) == sum(c * v**i for i, c in enumerate(coeffs))


@given(_coeff_list, st.lists(_coeff, max_size=3), _coeff)
def test_compose_agrees_with_pointwise(outer, inner, v):
    po, pi = UPoly(outer), UPoly(inner)
    assert po.compose(pi)(v) == po(pi(v))


@given(_coeff_list, st.integers(0, 4))
def test_pow_is_repeated_multiplication(coeffs, n):
    p = UPoly(coeffs)
    expected = UPoly.one()
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


def test_scalar_arithmetic():
    p = UPoly([1, 2])
    assert 2 * p == UPoly([2, 4])
    assert p * Fraction(1, 2) == UPoly([Fraction(1, 2), 1])
    assert p / 2 == UPoly([Fraction(1, 2), 1])
    assert p + 1 == UPoly([2, 2])
    assert 1 - p == UPoly([0, -2])
    assert -p == UPoly([-1, -2])


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        U**-1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        UPoly([0.5])


def test_float_evaluation():
    p = UPoly([1, -1])  # 1 - u
    assert p(0.25) == pytest.approx(0.75)


_numerators = st.lists(st.integers(-60, 60), max_size=8)


@example([], 1)  # the zero polynomial
@example([1, 0, 3], 2)  # an interior zero
@example([2, 1, 4], 2)  # coefficients that reduce to integers
@given(_numerators, st.integers(1, 36))
def test_rendering_matches_the_fraction_coefficients(num, den):
    p = UPoly.from_numerators(num, den)
    texts = [str(c) for c in p.coeffs]
    assert _show(p) == "[" + ", ".join(texts) + "]"
    assert repr(p) == f"UPoly([{', '.join(texts)}])"


def test_repr_and_str():
    p = UPoly([0, 2, -2])
    assert repr(p) == "UPoly([0, 2, -2])"
    assert str(p) == "2*u + -2*u^2"
    assert str(UPoly()) == "0"
