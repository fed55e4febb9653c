"""The integer kernels against plain-Fraction references.

The E-table recurrence, UPoly, the truncated alternating sum, the q-number
layer, the q-Stirling numbers, the Euler polynomial, the moment kernels and
the Bernstein evaluation and operator routes run on integer numerators over
shared denominators.  Each is checked here against an independent route:
the closed form for the E-table, and Fraction loops written out in this file
(the formulas these kernels replaced) for everything else.  The E-table's
antidiagonal walk and the Kronecker ``UPoly.compose`` are also held to the
integer routes they replaced, kept here: the per-entry binomial sum and the
Horner loop over coefficient lists.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qbernstein import euler, integrals
from qbernstein.bernstein import OPERATOR_METHODS, basis_eval_exact, basis_upoly, operator_apply
from qbernstein.euler import (
    EulerTable,
    complement_moment,
    euler_closed,
    euler_poly,
    euler_poly_closed,
    euler_table,
    fermionic_sum,
    shift_moment_sum,
)
from qbernstein.kernel import DomainError, padic_valuation
from qbernstein.qcore import gaussian_binomial, q_factorial, q_number_int, stirling2
from qbernstein.stirling import q_stirling2
from qbernstein.upoly import UPoly
from qbernstein.verify import _bridge_rhs

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
    assert len(euler._CACHE[q].values) == 31
    resumed = euler_table(q, 60)  # resumes from the cached 30-entry prefix
    monkeypatch.setattr(euler, "_CACHE", {})
    cold = euler_table(q, 60)
    assert resumed == cold
    assert resumed.values[:31] == short.values
    assert EulerTable(q, resumed.values).check_recurrence()


def _ref_prefix(q, nmax):
    """The per-entry binomial sum the antidiagonal walk replaced: E-values,
    their least common denominator and the numerators over it."""
    a, b = q.numerator, q.denominator
    values, den, nums = [Fraction(1)], 1, [1]
    for n in range(1, nmax + 1):
        s = -sum(math.comb(n, l) * a**l * b ** (n - l) * e for l, e in enumerate(nums))
        c = a**n + b**n
        g = math.gcd(s, c)
        s, m = s // g, c // g
        if m < 0:
            s, m = -s, -m
        if m != 1:
            nums = [e * m for e in nums]
            den *= m
        nums.append(s)
        values.append(Fraction(s, den))
    return tuple(values), den, tuple(nums)


def _ref_diag(q, nums):
    """The walk's last antidiagonal by its definition: entry m is
    sum_l C(m,l) a**l b**(m-l) e_(l+N-m) over the final denominator."""
    a, b, top = q.numerator, q.denominator, len(nums) - 1
    return tuple(
        sum(math.comb(m, l) * a**l * b ** (m - l) * nums[l + top - m] for l in range(m + 1))
        for m in range(top + 1)
    )


_table_q = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(11, 7), Fraction(-2, 5)]),
    st.fractions(min_value=-12, max_value=12, max_denominator=13),
).filter(lambda q: q != -1)


@settings(deadline=None)
@given(_table_q, st.integers(0, 40), st.data())
def test_prefix_matches_the_per_entry_sum(q, nmax, data):
    split = data.draw(st.integers(0, nmax), label="split")
    want = _ref_prefix(q, nmax)
    euler._CACHE.pop(q, None)
    table_only = euler._prefix(q, nmax)
    euler._CACHE.pop(q, None)
    cold = euler._integer_prefix(q, nmax)
    euler._CACHE.pop(q, None)
    euler._integer_prefix(q, split)
    resumed = euler._integer_prefix(q, nmax)
    for got in (cold, resumed):
        assert (got.values, got.den, got.nums) == want
        assert all(type(e) is int for e in got.nums)
        assert got.den > 0 and type(got.den) is int
    assert resumed.diag == cold.diag
    assert len(cold.diag) == nmax + 1 and cold.diag[0] == cold.nums[-1]
    assert (table_only.values, table_only.den, table_only.diag) == (*want[:2], _ref_diag(q, want[2]))


def test_a_cold_table_leaves_every_numerator_pending(cold_cache):
    q = Fraction(11, 7)
    table = euler_table(q, 110)
    prefix = euler._CACHE[q]
    assert prefix.nums == (1,) and len(prefix.pending) == 110
    folded = euler._integer_prefix(q, 110)
    assert euler._CACHE[q] is folded and folded.pending == ()
    assert tuple(Fraction(e, folded.den) for e in folded.nums) == table.values


def _ref_moment(values, s, d):
    return sum((math.comb(d, j) * (-1) ** j * values[s + j] for j in range(d + 1)), Fraction(0))


def _ref_poly(values, n, x, q):
    ux = _ref_q_number(x, q)
    return sum(
        (math.comb(n, l) * q ** (l * x) * values[l] * ux ** (n - l) for l in range(n + 1)),
        Fraction(0),
    )


@settings(deadline=None)
@given(_table_q, st.lists(st.integers(0, 30), min_size=4, max_size=4), st.integers(0, 30), st.integers(-2, 3))
@example(Fraction(0), [3, 5, 9, 12], 2, 3)
@example(Fraction(1), [3, 5, 9, 12], 2, 3)
@example(Fraction(-3), [3, 5, 9, 12], 2, -2)
@example(Fraction(-2, 5), [3, 5, 9, 12], 2, -2)
def test_integer_kernels_see_every_entry_when_reads_interleave(q, sizes, s, x):
    """Grow by table reads, read a moment, grow further, then read E_n(x):
    both kernels must see the entries that table reads left pending."""
    grow, first, regrow, last = sizes
    s, x = min(s, first), abs(x) if q == 0 else x  # a negative x is refused at q = 0
    values = _ref_prefix(q, max(sizes) + 1)[0]
    euler._CACHE.pop(q, None)
    euler_table(q, grow)
    assert euler.moment(s, first - s, q) == _ref_moment(values, s, first - s)
    euler_table(q, regrow)
    if q == 1:  # a pole of E_n(x)'s closed form; read a moment past the table instead
        assert euler.moment(0, last + 1, q) == _ref_moment(values, 0, last + 1)
    else:
        assert euler_poly(last, x, q) == _ref_poly(values, last, x, q)


def test_kernels_read_the_prefix_without_building_a_table(monkeypatch, cold_cache):
    def no_table(*args, **kwargs):
        raise AssertionError("an EulerTable was built")

    monkeypatch.setattr(euler, "EulerTable", no_table)
    with pytest.raises(AssertionError):
        euler_table(Fraction(2, 3), 3)
    q = Fraction(2, 3)
    assert euler.euler_number(6, q) == euler_closed(6, q)
    assert euler_poly(5, 2, q) == euler.euler_poly_closed(5, 2, q)
    assert complement_moment(5, q) == 2 + euler_closed(5, 1 / q)
    assert integrals.integral_direct(1, ((3, 1),), Fraction(1, 2)) == Fraction(2, 15)
    assert integrals.integral_reflected(1, ((3, 1),), Fraction(1, 2)) == Fraction(2, 15)


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


def _ref_compose_lists(p, inner):
    """The integer Horner loop over coefficient lists that Kronecker
    substitution replaced, as (numerators, denominator) before normalising."""
    if not p._num:
        return [], 1
    b, e = inner._num, inner._den
    acc, epow = [p._num[-1]], 1
    for c in reversed(p._num[:-1]):
        epow *= e
        if b:
            out = [0] * (len(acc) + len(b) - 1)
            for i, x in enumerate(acc):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            acc = out
        else:
            acc = [0]
        acc[0] += c * epow
    return acc, p._den * epow


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


def _assert_compose_matches_lists(outer, inner):
    composed = outer.compose(inner)
    _assert_canonical(composed)
    assert composed == UPoly.from_numerators(*_ref_compose_lists(outer, inner))


_wide = st.integers(-(2**260), 2**260)


@example([2**200 + 1, -(3**130)], [Fraction(-5, 3), Fraction(7, 2)])  # wide outer, den > 1
@example([-(2**255), 7, 2**201], [Fraction(4, 9)])  # a constant inner
@example([2**210, 3, -(5**90)], [])  # the zero inner
@example([-(7**80)], [Fraction(-1, 2), Fraction(3)])  # a degree-0 outer
@given(
    st.lists(_wide, max_size=9),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=4),
)
def test_compose_matches_the_list_horner_on_wide_coefficients(outer, inner):
    # outer coefficients of 200 bits and more; inner with denominators > 1
    # and negative coefficients, and constant and zero inners drawn too
    _assert_compose_matches_lists(UPoly(outer), UPoly(inner))
    _assert_compose_matches_lists(UPoly(outer) / 3**70, UPoly(inner))


def test_compose_reflects_every_degree_64_basis_member():
    one_minus_u = 1 - UPoly.monomial(1)
    for k in range(65):
        member = basis_upoly((k, 64))
        _assert_compose_matches_lists(member, one_minus_u)
        assert member.compose(one_minus_u) == basis_upoly((64 - k, 64))


@given(_coeffs, st.integers(0, 4))
def test_pow_matches_reference(a, n):
    expected = (Fraction(1),)
    for _ in range(n):
        expected = _ref_mul(expected, _trim(a))
    power = UPoly(a) ** n
    _assert_canonical(power)
    assert power.coeffs == expected


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


@given(st.lists(st.integers(-50, 50), max_size=7), st.integers(-30, 30).filter(bool))
def test_from_numerators_matches_fraction_construction(num, den):
    p = UPoly.from_numerators(num, den)
    _assert_canonical(p)
    assert p == UPoly([Fraction(c, den) for c in num])


def test_from_numerators_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        UPoly.from_numerators([1], 0)


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


@st.composite
def _padic_case(draw):
    """(p, q, level) inside the convergence regime |q|_p <= 1, |1-q|_p < 1:
    q = a/b with p dividing a - b and not b, so negative q, q > 1, q < 1
    and q = 1 all occur; p**level stays at most 243."""
    p = draw(st.sampled_from([3, 5, 7]))
    b = draw(st.integers(1, 20).filter(lambda b: b % p))
    q = Fraction(b + p * draw(st.integers(-6, 6)), b)
    level = draw(st.integers(1, {3: 5, 5: 3, 7: 2}[p]))
    return p, q, level


@given(_padic_case(), st.integers(0, 8))
def test_fermionic_sum_geometric_route_matches_fraction_loop(case, n):
    p, q, level = case
    assert fermionic_sum(n, q, p, level) == _ref_fermionic(n, q, p, level)


def _ref_fermionic_gcd(n, q, p, level):
    """The geometric sum over (b**(N-1) (b-a))**n, reduced by Fraction's own
    gcd of the two full integers."""
    terms = p**level
    a, b = q.numerator, q.denominator
    shift = b ** (terms - 1)
    total = 0
    for j in range(n + 1):
        g = (b ** (j * terms) + a ** (j * terms)) // (b**j + a**j) * math.comb(n, j)
        total = total * shift + (-g if j & 1 else g)
    return Fraction(total * b**n, (shift * (b - a)) ** n)


@st.composite
def _composite_b_case(draw):
    """(p, q, level) in the convergence regime with a composite denominator
    b, such as q = 7/10 at p = 3; q > 1 and q < 0 included; p**level <= 729."""
    p = draw(st.sampled_from([3, 5]))
    b = draw(st.sampled_from([4, 8, 10, 14, 16, 22, 26, 28, 49, 77]).filter(lambda b: b % p))
    q = Fraction(b + p * draw(st.integers(-8, 8).filter(bool)), b)
    level = draw(st.integers(1, {3: 6, 5: 4}[p]))
    return p, q, level


@given(_composite_b_case(), st.integers(0, 8))
@example((3, Fraction(7, 10), 6), 5)
@example((5, Fraction(19, 14), 4), 3)
def test_fermionic_sum_lowest_terms_match_the_full_gcd(case, n):
    p, q, level = case
    got = fermionic_sum(n, q, p, level)
    want = _ref_fermionic_gcd(n, q, p, level)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1


@pytest.mark.parametrize("n, q, level", [(6, Fraction(4), 12), (1, Fraction(4, 7), 10)])
def test_fermionic_sum_reaches_deep_levels(n, q, level):
    assert padic_valuation(fermionic_sum(n, q, 3, level) - euler_closed(n, q), 3) >= level


def _ref_fermionic_basis(k, n, q, p, level):
    """The truncated sum of the basis integrand, term by term over x < p**level."""
    total, sign = Fraction(0), 1
    for x in range(p**level):
        total += sign * basis_eval_exact((k, n), q_number_int(x, q))
        sign = -sign
    return total


# (k, n) with 0 <= k <= n + 1 <= 5: k = n + 1 is a vanishing basis member
_basis_index = st.integers(0, 4).flatmap(lambda n: st.tuples(st.integers(0, n + 1), st.just(n)))


@given(_padic_case(), _basis_index)
@example((3, Fraction(4), 3), (1, 3))
@example((5, Fraction(-4), 2), (2, 4))
@example((7, Fraction(1), 2), (0, 4))
def test_fermionic_basis_sum_matches_the_term_by_term_loop(case, index):
    p, q, level = case
    k, n = index
    want = _ref_fermionic_basis(k, n, q, p, level)
    assert integrals.fermionic_basis_sum(k, n, q, p, level) == want


def test_fermionic_basis_sum_shares_nothing_with_the_e_table(monkeypatch):
    def no_prefix(*args):
        raise AssertionError("the E-table prefix was read")

    monkeypatch.setattr(euler, "_prefix", no_prefix)
    q = Fraction(4)
    assert integrals.fermionic_basis_sum(1, 3, q, 3, 2) == _ref_fermionic_basis(1, 3, q, 3, 2)


# -- q-number layer and q-Stirling numbers ----------------------------------------

# every sign, q > 1, and the special values 0 and 1 drawn often
_q = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 4), Fraction(-2, 3)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
_q_not_minus_one = _q.filter(lambda q: q != -1)


def _ref_q_number(x, q):
    return Fraction(x) if q == 1 else (1 - q**x) / (1 - q)


def _ref_q_factorial(k, q):
    out, qi = Fraction(1), Fraction(0)
    for _ in range(k):
        qi = 1 + q * qi
        out *= qi
    return out


def _ref_gaussian(k, j, q):
    if j < 0 or j > k:
        return Fraction(0)
    if j == 0 or j == k:
        return Fraction(1)
    num = den = Fraction(1)
    for i in range(1, j + 1):
        num *= _ref_q_number(k - j + i, q)
        den *= _ref_q_number(i, q)
    return num / den


def _ref_q_stirling2(n, k, q):
    total = sum(
        (-1) ** j * q ** math.comb(j, 2) * _ref_gaussian(k, j, q) * _ref_q_number(k - j, q) ** n
        for j in range(k + 1)
    )
    return q ** (-math.comb(k, 2)) * total / _ref_q_factorial(k, q)


@given(_q, st.integers(-6, 12))
def test_q_number_matches_reference(q, x):
    if q == 0 and x < 0:
        with pytest.raises(DomainError):
            q_number_int(x, q)
    else:
        assert q_number_int(x, q) == _ref_q_number(x, q)


@given(_q, st.integers(0, 10))
def test_q_factorial_matches_reference(q, k):
    assert q_factorial(k, q) == _ref_q_factorial(k, q)


@given(_q_not_minus_one, st.integers(0, 10), st.integers(-1, 11))
def test_gaussian_binomial_matches_reference(q, k, j):
    assert gaussian_binomial(k, j, q) == _ref_gaussian(k, j, q)


@given(_q.filter(lambda q: q not in (0, -1)), st.integers(0, 7), st.integers(0, 7))
def test_q_stirling2_matches_reference(q, n, k):
    assert q_stirling2(n, k, q) == _ref_q_stirling2(n, k, q)


def test_q_layer_rejections_kept():
    with pytest.raises(DomainError):
        q_number_int(-1, 0)
    assert gaussian_binomial(4, 2, -1) == 2  # a value, not a refusal
    for q in (0, -1):
        with pytest.raises(DomainError):
            q_stirling2(3, 2, q)
    assert q_factorial(3, -1) == 0  # [2]_{-1} = 0, no rejection
    assert q_factorial(3, 0) == 1


# -- Euler polynomial and moment kernels -------------------------------------------

_q_table = _q.filter(lambda q: q not in (1, -1))


def _ref_euler_poly(n, x, q):
    table = euler_table(q, n)  # checked against the closed form above
    ux = _ref_q_number(x, q)
    return sum(
        (math.comb(n, l) * q ** (l * x) * table[l] * ux ** (n - l) for l in range(n + 1)),
        Fraction(0),
    )


@given(_q_table, st.integers(0, 10), st.integers(-3, 4))
def test_euler_poly_matches_reference(q, n, x):
    if q == 0 and x < 0:
        with pytest.raises(DomainError):
            euler_poly(n, x, q)
    else:
        assert euler_poly(n, x, q) == _ref_euler_poly(n, x, q)


@given(_q_table, st.integers(0, 12))
def test_complement_moment_matches_reference(q, n):
    table = euler_table(q, n)
    want = sum((math.comb(n, l) * (-1) ** l * table[l] for l in range(n + 1)), Fraction(0))
    if q == 0:
        with pytest.raises(DomainError):
            complement_moment(n, q)
    else:
        assert complement_moment(n, q) == want


_pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=3)


def _ref_direct(k, pairs, q):
    coeff = math.prod(math.comb(n, k) ** m for n, m in pairs)
    total = sum(n * m for n, m in pairs)
    kM = k * sum(m for _, m in pairs)
    if coeff == 0:
        return Fraction(0)
    table = euler_table(q, total)
    return coeff * sum(
        (math.comb(total - kM, j) * (-1) ** j * table[j + kM] for j in range(total - kM + 1)),
        Fraction(0),
    )


def _ref_reflected(k, pairs, qr):
    total = sum(n * m for n, m in pairs)
    kM = k * sum(m for _, m in pairs)
    table = euler_table(qr, total)
    if kM == 0:
        return 2 + table[total]
    coeff = math.prod(math.comb(n, k) ** m for n, m in pairs)
    return coeff * sum(
        (math.comb(kM, j) * (-1) ** (kM - j) * table[total - j] for j in range(kM + 1)),
        Fraction(0),
    )


# the moment routes' domain: q off the poles 0, 1 and -1
_moment_q = _q.filter(lambda q: q not in (0, 1, -1))


@given(_moment_q, st.integers(0, 3), _pairs)
def test_direct_moment_kernel_matches_reference(q, k, pairs):
    assert integrals.integral_direct(k, pairs, q) == _ref_direct(k, pairs, q)


@given(_moment_q, st.integers(0, 3), _pairs)
def test_reflected_moment_kernel_matches_reference(q, k, pairs):
    # the route's domain, T > kM; it lands on E-values at 1/q
    assume(sum(n * m for n, m in pairs) > k * sum(m for _, m in pairs))
    assert integrals.integral_reflected(k, pairs, q) == _ref_reflected(k, pairs, 1 / q)


# -- closed forms, the shift sum and the recurrence check ---------------------------


def _ref_poly_closed(n, x, q):
    """The term-by-term Fraction loop the integer closed-form kernel replaced."""
    s = sum(
        Fraction(math.comb(n, l) * (-1) ** l) * q ** (l * x) / (1 + q**l) for l in range(n + 1)
    )
    return 2 * s / (1 - q) ** n


def _ref_closed(n, q):
    s = sum(Fraction(math.comb(n, l) * (-1) ** l) / (1 + q**l) for l in range(n + 1))
    return 2 * s / (1 - q) ** n


@given(_q_table, st.integers(0, 24), st.integers(-3, 4))
@example(Fraction(0), 24, 4)
@example(Fraction(0), 5, 0)
@example(Fraction(-7, 3), 24, -3)
@example(Fraction(5, 4), 24, 4)
def test_closed_forms_match_the_term_by_term_loop(q, n, x):
    assert euler_closed(n, q) == _ref_closed(n, q)
    if q == 0 and x < 0:
        with pytest.raises(DomainError):
            euler_poly_closed(n, x, q)
    else:
        assert euler_poly_closed(n, x, q) == _ref_poly_closed(n, x, q)


_CLOSED_QS = [Fraction(0), Fraction(2, 3), Fraction(-7, 3), Fraction(11, 7), Fraction(4), Fraction(-1, 5)]


@pytest.mark.parametrize("q", _CLOSED_QS, ids=str)
@pytest.mark.parametrize("n", [0, 1, 2, 3])  # 1 to 4 leaves: odd and even splits
def test_closed_forms_base_cases(n, q):
    assert euler_closed(n, q) == _ref_closed(n, q)
    for x in range(0 if q == 0 else -3, 4):
        assert euler_poly_closed(n, x, q) == _ref_poly_closed(n, x, q)


@pytest.mark.parametrize("q", [Fraction(11, 7), Fraction(-7, 3)], ids=str)
def test_closed_form_at_depth(q, cold_cache):
    assert euler_closed(110, q) == _ref_closed(110, q) == euler.euler_number(110, q)


@pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(-7, 3), Fraction(11, 7), Fraction(-1, 5)], ids=str)
@pytest.mark.parametrize("n", [17, 31, 40])
def test_closed_poly_form_off_zero(n, q):
    for x in (-3, -1, 1, 2, 4):
        assert euler_poly_closed(n, x, q) == _ref_poly_closed(n, x, q)


def test_closed_forms_share_nothing_with_the_e_table(monkeypatch):
    cases = [(n, x, q) for q in (Fraction(2, 3), Fraction(-7, 3)) for n in (0, 7) for x in (-2, 3)]
    want = [(_ref_closed(n, q), _ref_poly_closed(n, x, q)) for n, x, q in cases]

    def no_prefix(*args):
        raise AssertionError("the E-table prefix was read")

    monkeypatch.setattr(euler, "_prefix", no_prefix)
    monkeypatch.setattr(euler, "_integer_prefix", no_prefix)
    assert [(euler_closed(n, q), euler_poly_closed(n, x, q)) for n, x, q in cases] == want


def _ref_shift_moment_sum(shift, m, q):
    return 2 * sum(((-1) ** (shift - l - 1) * _ref_q_number(l, q) ** m for l in range(shift)), Fraction(0))


@given(_q, st.integers(1, 6), st.integers(0, 9))
def test_shift_moment_sum_matches_the_term_by_term_loop(q, shift, m):
    assert shift_moment_sum(shift, m, q) == _ref_shift_moment_sum(shift, m, q)


def _ref_check_recurrence(table):
    """The Fraction loop that ``check_recurrence`` replaced."""
    q = table.q
    for n in range(1, len(table)):
        s = sum(math.comb(n, l) * q**l * table[l] for l in range(n + 1))
        if s + table[n] != 0:
            return False
    return True


@given(_q_not_minus_one, st.integers(1, 16), st.data())
def test_recurrence_check_matches_the_fraction_loop(q, nmax, data):
    values = list(euler_table(q, nmax).values)
    if data.draw(st.booleans(), label="perturb"):
        i = data.draw(st.integers(1, nmax), label="i")
        values[i] += data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=50), label="by")
    table = EulerTable(q, tuple(values))
    assert table.check_recurrence() == _ref_check_recurrence(table)


# -- Bernstein evaluation and operator routes ----------------------------------------

_u = st.fractions(min_value=-4, max_value=4, max_denominator=11)
_samples = st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=9)),
    min_size=1,
    max_size=9,
)


def _ref_basis(k, n, u):
    if k < 0 or n < k:
        return Fraction(0)
    return math.comb(n, k) * u**k * (1 - u) ** (n - k)


def _ref_operator(vals, u, method):
    vals = [Fraction(v) for v in vals]
    n = len(vals) - 1
    if method == "direct":
        return sum((f * _ref_basis(k, n, u) for k, f in enumerate(vals)), Fraction(0))
    if method == "monomial":
        deltas = [
            sum((math.comb(m, k) * (-1) ** (m - k) * vals[k] for k in range(m + 1)), Fraction(0))
            for m in range(n + 1)
        ]
    else:  # the iterated differences, written out
        work, deltas = list(vals), []
        while work:
            deltas.append(work[0])
            work = [b - a for a, b in zip(work, work[1:])]
    return sum((math.comb(n, m) * u**m * d for m, d in enumerate(deltas)), Fraction(0))


@given(st.integers(-1, 12), st.integers(0, 11), _u)
def test_basis_eval_matches_reference(k, n, u):
    assert basis_eval_exact((k, n), u) == _ref_basis(k, n, u)


@given(st.integers(-1, 12), st.integers(0, 11))
def test_basis_upoly_matches_reference(k, n):
    want = UPoly(
        [Fraction(0)] * k
        + [Fraction((-1) ** (l - k) * math.comb(n, l) * math.comb(l, k)) for l in range(k, n + 1)]
        if 0 <= k <= n
        else []
    )
    assert basis_upoly((k, n)) == want


@pytest.mark.parametrize("method", OPERATOR_METHODS)
@given(vals=_samples, u=_u)
def test_operator_routes_match_reference(method, vals, u):
    assert operator_apply(vals, u, method) == _ref_operator(vals, u, method)


@given(st.integers(0, 7), st.integers(0, 12), _u)
def test_operator_bridge_side_matches_the_fraction_sum(m, n, u):
    want = sum(
        (math.comb(n, k) * u**k * math.factorial(k) * stirling2(m, k) for k in range(n + 1)),
        Fraction(0),
    )
    assert _bridge_rhs(m, n, u) == want
