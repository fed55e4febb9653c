"""The integer kernels against plain-Fraction references.

The E-table recurrence, UPoly and the truncated alternating sum run on
integer numerators over shared denominators.  Each is checked here against
an independent route: the closed form for the E-table, and Fraction loops
written out in this file for UPoly and the truncated sum.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbernstein import euler
from qbernstein.euler import EulerTable, euler_closed, euler_table, fermionic_sum
from qbernstein.upoly import UPoly

# -- E-table ------------------------------------------------------------------

TABLE_QS = [Fraction(1, 2), Fraction(3), Fraction(-2, 5), Fraction(11, 3), Fraction(7, 10)]


@pytest.fixture
def cold_cache(monkeypatch):
    monkeypatch.setattr(euler, "_CACHE", {})


@pytest.mark.parametrize("q", TABLE_QS, ids=str)
def test_table_matches_closed_form(q, cold_cache):
    table = euler_table(q, 60)
    assert list(table.values) == [euler_closed(n, q) for n in range(61)]


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1)], ids=str)
def test_closed_form_poles_follow_the_recurrence(q, cold_cache):
    table = euler_table(q, 40)
    assert len(table) == 41
    assert table.check_recurrence()
    # an independent Fraction run of the same recurrence
    values = [Fraction(1)]
    for n in range(1, 41):
        acc = sum(math.comb(n, l) * q**l * values[l] for l in range(n))
        values.append(-acc / (1 + q**n))
    assert list(table.values) == values


@pytest.mark.parametrize("q", TABLE_QS, ids=str)
def test_resumed_table_equals_cold_build(q, monkeypatch):
    monkeypatch.setattr(euler, "_CACHE", {})
    short = euler_table(q, 30)
    resumed = short.extend(60)
    monkeypatch.setattr(euler, "_CACHE", {})
    cold = euler_table(q, 60)
    assert resumed == cold
    assert resumed.values[:31] == short.values
    assert EulerTable(q, resumed.values).check_recurrence()


# -- UPoly ----------------------------------------------------------------------

_coeff = st.fractions(min_value=-40, max_value=40, max_denominator=24)
_coeffs = st.lists(_coeff, max_size=7)
_scalar = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_eval(a, v):
    return sum((c * v**i for i, c in enumerate(a)), Fraction(0))


def _ref_compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, b), (c,))
    return acc


def _assert_canonical(p):
    assert p._den > 0
    assert not p._num or p._num[-1] != 0
    assert math.gcd(p._den, *p._num) == 1


@given(_coeffs)
def test_construction_matches_reference(a):
    p = UPoly(a)
    _assert_canonical(p)
    assert p.coeffs == _trim(a)
    assert all(p.coeff(i) == c for i, c in enumerate(_trim(a)))
    assert p.coeff(len(a)) == 0


@given(_coeffs, _coeffs)
def test_add_sub_match_reference(a, b):
    pa, pb = UPoly(a), UPoly(b)
    for result, expected in (
        (pa + pb, _ref_add(_trim(a), _trim(b))),
        (pa - pb, _ref_add(_trim(a), tuple(-c for c in _trim(b)))),
        (-pa, tuple(-c for c in _trim(a))),
    ):
        _assert_canonical(result)
        assert result.coeffs == expected


@given(_coeffs, _coeffs)
def test_mul_matches_reference(a, b):
    product = UPoly(a) * UPoly(b)
    _assert_canonical(product)
    assert product.coeffs == _ref_mul(_trim(a), _trim(b))


@given(_coeffs, _scalar)
def test_scalar_ops_match_reference(a, c):
    p = UPoly(a)
    assert (p * c).coeffs == _trim(x * c for x in a)
    assert (c * p).coeffs == _trim(x * c for x in a)
    assert (p + c).coeffs == _ref_add(_trim(a), (c,))
    assert (c - p).coeffs == _ref_add((c,), tuple(-x for x in _trim(a)))
    if c != 0:
        quotient = p / c
        _assert_canonical(quotient)
        assert quotient.coeffs == _trim(x / c for x in a)


@given(_coeffs, _scalar)
def test_evaluation_matches_reference(a, v):
    p = UPoly(a)
    assert p(v) == _ref_eval(_trim(a), v)
    acc = 0.0
    for c in reversed(_trim(a)):
        acc = acc * float(v) + float(c)
    assert p(float(v)) == acc


@given(_coeffs, st.lists(_coeff, max_size=4))
def test_compose_matches_reference(a, b):
    composed = UPoly(a).compose(UPoly(b))
    _assert_canonical(composed)
    assert composed.coeffs == _ref_compose(_trim(a), _trim(b))


@given(st.lists(_coeff, max_size=4), st.integers(0, 4))
def test_pow_matches_reference(a, n):
    expected = (Fraction(1),)
    for _ in range(n):
        expected = _ref_mul(expected, _trim(a))
    assert (UPoly(a) ** n).coeffs == expected


@given(_coeffs, _coeffs, _scalar)
def test_equal_values_give_equal_objects_and_hashes(a, b, c):
    p = UPoly(a)
    routes = [p + UPoly(b) - UPoly(b), UPoly(list(a) + [0, 0]), UPoly(p.coeffs)]
    if c != 0:
        routes.append(p * c / c)
    for q in routes:
        assert q == p
        assert hash(q) == hash(p)
        assert (q._num, q._den) == (p._num, p._den)


def test_unreduced_inputs_are_normalised():
    assert UPoly([Fraction(2, 4)]) == UPoly([Fraction(1, 2)])
    assert hash(UPoly([Fraction(2, 4)])) == hash(UPoly([Fraction(1, 2)]))
    p = UPoly([Fraction(3, 6), Fraction(-4, 6)])
    assert (p._num, p._den) == ((3, -4), 6)
    assert UPoly([Fraction(1, 2)]) + UPoly([Fraction(1, 2)]) == 1
    assert (UPoly([0, Fraction(1, 3)]) * 3) == UPoly.monomial(1)
    assert UPoly([Fraction(1, 3)]) - UPoly([Fraction(1, 3)]) == UPoly.zero()


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        UPoly([1, 2]) / 0


# -- truncated alternating sum --------------------------------------------------

SUM_QS = [Fraction(4), Fraction(7, 4), Fraction(-2), Fraction(10, 7), Fraction(1)]


def _ref_fermionic(n, q, p, level):
    total = Fraction(0)
    for x in range(p**level):
        qx = q**x
        ux = Fraction(x) if q == 1 else (1 - qx) / (1 - q)
        total += (-1) ** x * ux**n
    return total


@pytest.mark.parametrize("q", SUM_QS, ids=str)
def test_fermionic_sum_matches_fraction_loop(q):
    for n in range(5):
        for level in range(1, 5):
            assert fermionic_sum(n, q, 3, level) == _ref_fermionic(n, q, 3, level)


def test_fermionic_sum_other_prime():
    q = Fraction(6)
    assert fermionic_sum(3, q, 5, 2) == _ref_fermionic(3, q, 5, 2)
