import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qbernstein import euler
from qbernstein.euler import (
    EulerTable,
    complement_moment,
    euler_closed,
    euler_number,
    euler_poly,
    euler_poly_closed,
    euler_poly_real,
    euler_table,
    fermionic_sum,
    reflection_check,
    shift_moment,
    shift_moment_sum,
)
from qbernstein.kernel import DomainError, binomial_coeff, padic_valuation
from qbernstein.qcore import q_number_int

SAMPLE_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4), Fraction(3))


def _closed_form_oracle(n, q):
    # written out independently of the package routines
    total = Fraction(0)
    for l in range(n + 1):
        total += Fraction(binomial_coeff(n, l) * (-1) ** l) / (1 + q**l)
    return 2 * total / (1 - q) ** n


class TestEulerTable:
    def test_frozen_prefix_at_half(self):
        # derived by running the recurrence by hand:
        # (1+q^n) E_n = -sum_{l<n} C(n,l) q^l E_l
        table = euler_table(Fraction(1, 2), 5)
        assert table.values == (
            Fraction(1),
            Fraction(-2, 3),
            Fraction(-4, 15),
            Fraction(8, 45),
            Fraction(464, 765),
            Fraction(1504, 1683),
        )

    def test_frozen_prefix_at_two(self):
        table = euler_table(Fraction(2), 4)
        assert table.values == (
            Fraction(1),
            Fraction(-1, 3),
            Fraction(1, 15),
            Fraction(1, 45),
            Fraction(-29, 765),
        )

    def test_classical_numbers_at_q_one(self):
        table = euler_table(Fraction(1), 6)
        assert table.values == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 2),
            Fraction(0),
        )

    def test_recurrence_invariant(self):
        for q in SAMPLE_QS:
            assert euler_table(q, 15).check_recurrence()

    def test_extension_is_immutable(self):
        table = euler_table(Fraction(3, 5), 4)
        longer = table.extend(9)
        assert table.nmax == 4
        assert longer.nmax == 9
        assert longer.values[:5] == table.values
        shorter = longer.extend(2)
        assert shorter.values == table.values[:3]

    def test_rejects_q_minus_one(self):
        for q in (Fraction(-1), -1, "-1"):
            with pytest.raises(DomainError):
                euler_table(q, 3)
            with pytest.raises(DomainError):
                euler_number(3, q)
        with pytest.raises(DomainError):
            EulerTable(Fraction(-1), (Fraction(1),))

    def test_rejects_bad_seed(self):
        with pytest.raises(DomainError):
            EulerTable(Fraction(1, 2), (Fraction(2),))

    def test_rejects_negative_nmax(self):
        with pytest.raises(DomainError):
            euler_table(Fraction(1, 2), -1)
        with pytest.raises(DomainError):
            euler_number(-1, Fraction(1, 2))


class TestClosedForm:
    def test_examples(self):
        assert euler_closed(0, Fraction(3, 7)) == 1
        assert euler_closed(1, Fraction(1, 2)) == Fraction(-2, 3)
        assert euler_closed(2, Fraction(2)) == Fraction(1, 15)

    def test_matches_recurrence_up_to_twenty(self):
        for q in SAMPLE_QS:
            table = euler_table(q, 20)
            for n in range(21):
                assert euler_closed(n, q) == table[n]

    def test_matches_independent_oracle(self):
        for q in SAMPLE_QS:
            for n in range(10):
                assert euler_number(n, q) == _closed_form_oracle(n, q)

    def test_poles_rejected(self):
        with pytest.raises(DomainError):
            euler_closed(2, Fraction(1))
        with pytest.raises(DomainError):
            euler_closed(2, Fraction(-1))


class TestEulerPoly:
    def test_collapses_at_zero(self):
        for q in SAMPLE_QS:
            for n in range(11):
                assert euler_poly(n, 0, q) == euler_number(n, q)

    def test_examples(self):
        q = Fraction(1, 2)
        assert euler_poly(1, 1, q) == Fraction(2, 3)
        assert euler_poly(1, 2, q) == Fraction(4, 3)  # (1 + 2q)/(1 + q) at q = 1/2

    def test_agrees_with_closed_route(self):
        for q in SAMPLE_QS:
            for n in range(9):
                for x in range(-2, 4):
                    assert euler_poly(n, x, q) == euler_poly_closed(n, x, q)

    def test_real_overload_matches_exact_at_integers(self):
        for n in range(6):
            for x in range(0, 3):
                exact = float(euler_poly(n, x, Fraction(1, 2)))
                assert euler_poly_real(n, float(x), 0.5) == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 2), Fraction(3)], ids=str)
    def test_real_overload_holds_precision_for_every_q(self, q):
        # for q > 1 the float recurrence alone lost every digit by n = 20
        for n in range(21):
            for x in range(-2, 4):
                exact = float(euler_poly(n, x, q))
                assert euler_poly_real(n, float(x), float(q)) == pytest.approx(exact, rel=1e-8)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            euler_poly(2, 1, Fraction(1))
        with pytest.raises(DomainError):
            euler_poly_real(2, 0.5, 1.0)


class TestShiftMoment:
    def test_examples(self):
        q = Fraction(1, 2)
        assert shift_moment(1, 1, q) == 0
        assert shift_moment_sum(1, 1, q) == 0
        for qq in SAMPLE_QS:
            assert shift_moment(1, 0, qq) == 2  # 2 * 0^0
        assert shift_moment(2, 1, q) == 2

    def test_contract_exhaustive(self):
        for q in SAMPLE_QS:
            for shift in range(1, 5):
                for m in range(9):
                    assert shift_moment(shift, m, q) == shift_moment_sum(shift, m, q)

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(DomainError):
            shift_moment(0, 1, Fraction(1, 2))


class TestReflection:
    def test_examples(self):
        q = Fraction(1, 2)
        assert reflection_check(1, 0, q) == (Fraction(1, 3), Fraction(1, 3))
        assert reflection_check(1, 1, q) == (Fraction(-1, 3), Fraction(-1, 3))
        left, right = reflection_check(0, 7, Fraction(2, 3))
        assert left == right == 1

    def test_components_equal_exhaustive(self):
        for q in SAMPLE_QS:
            for n in range(11):
                for x in range(-2, 4):
                    left, right = reflection_check(n, x, q)
                    assert left == right

    def test_rejects_q_zero(self):
        with pytest.raises(DomainError):
            reflection_check(1, 0, Fraction(0))


class TestComplementMoment:
    def test_examples(self):
        q = Fraction(1, 2)
        assert complement_moment(0, q) == 1
        assert complement_moment(1, q) == Fraction(5, 3)
        assert complement_moment(2, q) == Fraction(31, 15)

    def test_reflected_contract(self):
        for q in SAMPLE_QS:
            for n in range(1, 13):
                assert complement_moment(n, q) == 2 + euler_number(n, 1 / q)

    def test_printed_variant_is_false(self):
        # the non-reflected form fails already at n = 1, q = 1/2
        q = Fraction(1, 2)
        assert complement_moment(1, q) == Fraction(5, 3)
        assert 2 + euler_number(1, q) == Fraction(4, 3)
        assert complement_moment(1, q) != 2 + euler_number(1, q)

    def test_moment_oracle(self):
        # expand (1 - [x]_q)^n by hand and integrate term by term
        for q in (Fraction(1, 2), Fraction(5, 4)):
            for n in range(9):
                total = sum(
                    binomial_coeff(n, l) * (-1) ** l * euler_number(l, q)
                    for l in range(n + 1)
                )
                assert complement_moment(n, q) == total


class TestFermionicSum:
    def test_anchors(self):
        assert fermionic_sum(1, 4, 3, 1) == 4
        assert fermionic_sum(1, 4, 3, 2) == 17476
        for level in range(1, 4):
            assert fermionic_sum(0, 4, 3, level) == 1

    def test_anchor_valuations(self):
        e1 = euler_number(1, 4)
        assert e1 == Fraction(-1, 5)
        assert padic_valuation(fermionic_sum(1, 4, 3, 1) - e1, 3) == 1
        assert padic_valuation(fermionic_sum(1, 4, 3, 2) - e1, 3) == 2

    def test_valuation_growth(self):
        for n in range(5):
            limit = euler_number(n, 4)
            values = [
                padic_valuation(fermionic_sum(n, 4, 3, level) - limit, 3)
                for level in range(1, 6)
            ]
            previous = None
            for level, v in enumerate(values, start=1):
                assert v >= level
                if previous is not None:
                    assert v > previous or v == math.inf
                previous = v

    def test_matches_naive_sum(self):
        # independent oracle: literal alternating sum over q-numbers
        q = Fraction(4)
        for n in range(4):
            naive = sum(
                (-1) ** x * q_number_int(x, q) ** n for x in range(3**2)
            )
            assert fermionic_sum(n, q, 3, 2) == naive

    def test_preconditions(self):
        with pytest.raises(DomainError):
            fermionic_sum(1, 2, 3, 1)  # |1-q|_3 = 1, no convergence
        with pytest.raises(DomainError):
            fermionic_sum(1, Fraction(1, 3), 3, 1)  # |q|_3 > 1
        with pytest.raises(DomainError):
            fermionic_sum(1, 4, 4, 1)  # p not an odd prime
        with pytest.raises(DomainError):
            fermionic_sum(1, 4, 3, 0)  # level must be >= 1

    def test_q_one_limit_is_classical(self):
        # v_p(q-1) = v_p(0) = inf satisfies the convergence condition
        naive = sum((-1) ** x * Fraction(x) for x in range(27))
        assert fermionic_sum(1, 1, 3, 3) == naive


@settings(max_examples=60)
@given(
    st.sampled_from((*SAMPLE_QS, 3, 0, 1, "2/3", "-2/5", Fraction(-7, 4))),
    st.integers(0, 24),
    st.one_of(st.none(), st.integers(0, 24)),
)
def test_number_accessor_matches_table(q, n, cached):
    """Cold, and resuming from a cached prefix shorter or longer than n."""
    with mock.patch.dict(euler._CACHE, clear=True):
        want = euler_table(q, n)[n]
    with mock.patch.dict(euler._CACHE, clear=True):
        if cached is not None:
            euler_table(q, cached)
        assert euler_number(n, q) == want
