import ast
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from qbernstein import integrals
from qbernstein.bernstein import basis_upoly
from qbernstein.euler import complement_moment, euler_number, euler_table
from qbernstein.integrals import fermionic_basis_sum, integral_direct, integral_reflected
from qbernstein.kernel import DomainError, padic_valuation
from qbernstein.upoly import UPoly

SAMPLE_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4))
HALF = Fraction(1, 2)
ROUTES = {"direct": integral_direct, "reflected": integral_reflected}


def _product(*ns):
    """The pairs of prod_i B_{k,n_i}: every multiplicity 1."""
    return tuple((n, 1) for n in ns)


# (k, pairs, value at q = 1/2): each anchor holds on both routes
ANCHORS = {
    "basis-k1-n2": (1, ((2, 1),), Fraction(-4, 5)),  # 2 (E_1 - E_2)
    "basis-k0-n1": (0, ((1, 1),), Fraction(5, 3)),
    "basis-k1-n3": (1, ((3, 1),), Fraction(2, 15)),
    "basis-k0-n2": (0, ((2, 1),), Fraction(31, 15)),
    "product-k1-2,2": (1, _product(2, 2), Fraction(-16, 255)),
    "product-k0-1,1": (0, _product(1, 1), Fraction(31, 15)),
    "product-k1-1,2": (1, _product(1, 2), Fraction(-8, 9)),
    "power-k1-(2,2)": (1, ((2, 2),), Fraction(-16, 255)),
    "power-k0-(1,2)": (0, ((1, 2),), Fraction(31, 15)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("anchor", sorted(ANCHORS))
def test_anchor(route, anchor):
    k, pairs, value = ANCHORS[anchor]
    assert ROUTES[route](k, pairs, HALF) == value


class TestIntegralBasis:
    def test_examples(self):
        for q in SAMPLE_QS:
            for n in range(13):
                assert integral_direct(0, ((n, 1),), q) == complement_moment(n, q)
        for n in range(7):
            assert integral_direct(n, ((n, 1),), HALF) == euler_number(n, HALF)

    def test_vanishes_above_degree(self):
        assert integral_direct(3, ((2, 1),), HALF) == 0

    def test_linearity_partition(self):
        for q in SAMPLE_QS:
            for n in range(11):
                total = sum(integral_direct(k, ((n, 1),), q) for k in range(n + 1))
                assert total == 1

    def test_pole_rejected(self):
        for q in (Fraction(0), Fraction(1), Fraction(-1)):
            with pytest.raises(DomainError):
                integral_direct(1, ((2, 1),), q)


class TestReflectedBasis:
    @pytest.mark.parametrize("q", SAMPLE_QS, ids=str)
    def test_agrees_with_direct_route(self, q):
        for n in range(1, 11):
            for k in range(n):
                assert integral_reflected(k, ((n, 1),), q) == integral_direct(k, ((n, 1),), q)

    def test_requires_n_above_k(self):
        with pytest.raises(DomainError):
            integral_reflected(2, ((2, 1),), HALF)

    def test_printed_variant_is_false(self):
        # the separating instance: the printed form keeps q where 1/q belongs,
        # so it is the reflected route called at the reciprocal parameter
        printed = integral_reflected(1, ((3, 1),), 1 / HALF)
        assert printed == Fraction(-4, 3)
        assert printed != integral_direct(1, ((3, 1),), HALF)


class TestIntegralProduct:
    def test_k_zero_matches_complement(self):
        assert integral_direct(0, _product(1, 1), HALF) == complement_moment(2, HALF)
        assert integral_reflected(0, _product(1, 1), HALF) == 2 + euler_number(2, 2)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_repeated_factor_is_a_power(self, route):
        # m equal factors (n, 1) are the one pair (n, m)
        for q in SAMPLE_QS:
            for n in range(1, 5):
                for m in range(1, 4):
                    for k in range(n):
                        power = ROUTES[route](k, ((n, m),), q)
                        assert power == ROUTES[route](k, _product(*[n] * m), q)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_factor_order_is_free(self, route):
        pairs = ((1, 2), (3, 1), (2, 1))
        assert ROUTES[route](1, pairs, HALF) == ROUTES[route](1, pairs[::-1], HALF)

    @pytest.mark.parametrize("q", SAMPLE_QS, ids=str)
    def test_direct_vs_reflected_sweep(self, q):
        for s in range(1, 4):
            for ns in combinations_with_replacement(range(1, 6), s):
                for k in range(3):
                    if sum(ns) <= s * k:
                        continue
                    pairs = _product(*ns)
                    assert integral_direct(k, pairs, q) == integral_reflected(k, pairs, q)

    def test_vanishing_factor(self):
        assert integral_direct(3, _product(2, 5), HALF) == 0

    def test_reflected_precondition(self):
        with pytest.raises(DomainError):
            integral_reflected(2, _product(2, 2), HALF)

    def test_printed_variant(self):
        # coincidence instance: the misprint is numerically invisible here
        assert integral_reflected(1, _product(2, 2), 1 / HALF) == Fraction(-16, 255)
        # separating instance: it is visible here
        assert integral_reflected(1, _product(1, 2), 1 / HALF) == Fraction(4, 45)
        assert integral_direct(1, _product(1, 2), HALF) == Fraction(-8, 9)

    def test_printed_k_zero_variant_is_false(self):
        printed = 2 + euler_number(2, HALF)
        assert printed == Fraction(26, 15)
        assert printed != integral_direct(0, _product(1, 1), HALF)


class TestPowerProduct:
    @pytest.mark.parametrize("q", SAMPLE_QS, ids=str)
    def test_reflected_vs_direct_sweep(self, q):
        pool = [(n, m) for n in range(1, 4) for m in range(1, 3)]
        powers = [pairs for s in range(1, 3) for pairs in combinations_with_replacement(pool, s)]
        # the m = 1 instances of products with up to three factors
        products = [_product(*ns) for ns in ((2,), (1, 2), (2, 3), (1, 1, 2))]
        for pairs in powers + products:
            total = sum(n * m for n, m in pairs)
            mult = sum(m for _, m in pairs)
            for k in range(3):
                if total <= k * mult:
                    continue
                assert integral_reflected(k, pairs, q) == integral_direct(k, pairs, q)

    def test_precondition(self):
        with pytest.raises(DomainError):
            integral_reflected(2, ((2, 2),), HALF)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_pairs_are_normalised(self, route):
        # any iterable of pairs, a one-shot generator included, and any q
        # spelling that names the same rational give the same moment
        want = ROUTES[route](1, ((2, 1), (3, 2)), HALF)
        assert ROUTES[route](1, [[2, 1], (3, 2)], "1/2") == want
        assert ROUTES[route](1, (pair for pair in ((2, 1), (3, 2))), HALF) == want

    def test_pairs_validation(self):
        with pytest.raises(DomainError):
            integral_direct(1, iter(()), HALF)
        with pytest.raises(DomainError):
            integral_direct(1, [[2, 0]], HALF)
        with pytest.raises(DomainError):
            integral_direct(-1, [[2, 1]], HALF)
        # a degree or multiplicity that is not an int is refused, not truncated
        for pairs in (((2.5, 1),), ((2, 1.5),)):
            with pytest.raises(TypeError):
                integral_direct(1, pairs, HALF)

    def test_printed_variant_separates(self):
        pairs = ((1, 1), (2, 1))
        printed = integral_reflected(1, pairs, 1 / HALF)
        assert printed != integral_direct(1, pairs, HALF)
        assert printed == Fraction(4, 45)


@pytest.mark.parametrize("q", SAMPLE_QS, ids=str)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_is_the_moment_of_the_expanded_integrand(route, q):
    # oracle: multiply out prod_i B_{k,n_i}**m_i in u and take the moment of
    # each u**l, which is E_{l,q}; no route formula is involved
    pool = [(n, m) for n in range(4) for m in range(1, 3)]
    for s in range(1, 3):
        for pairs in combinations_with_replacement(pool, s):
            total = sum(n * m for n, m in pairs)
            table = euler_table(q, total)
            for k in range(3):
                if route == "reflected" and total <= k * sum(m for _, m in pairs):
                    continue
                integrand = UPoly.one()
                for n, m in pairs:
                    integrand = integrand * basis_upoly((k, n)) ** m
                want = sum((c * table[l] for l, c in enumerate(integrand.coeffs)), Fraction(0))
                assert ROUTES[route](k, pairs, q) == want


# The refused inputs, each as a change to an admissible call: k = 1, the one
# factor (n, m) = (3, 1) and q = 1/2.  Only the reflected route needs T > kM.
_ADMISSIBLE = {"k": 1, "pairs": ((3, 1),), "q": HALF}
_REFUSED = {
    "q=0": {"q": 0},
    "q=1": {"q": 1},
    "q=-1": {"q": -1},
    "k=-1": {"k": -1},
    "n=-1": {"pairs": ((-1, 1),)},
    "no-factor": {"pairs": ()},
    "m=0": {"pairs": ((3, 0),)},
    "T<=kM": {"k": 3},
}
_REFUSED_BY = {"direct": sorted(set(_REFUSED) - {"T<=kM"}), "reflected": sorted(_REFUSED)}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_takes_the_admissible_call(route):
    assert ROUTES[route](**_ADMISSIBLE) == Fraction(2, 15)


@pytest.mark.parametrize(
    "route, refused",
    [(route, refused) for route, cases in sorted(_REFUSED_BY.items()) for refused in cases],
)
def test_every_route_refuses_each_refused_input(route, refused):
    with pytest.raises(DomainError):
        ROUTES[route](**{**_ADMISSIBLE, **_REFUSED[refused]})


def _functions():
    tree = ast.parse(Path(integrals.__file__).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_starts_with_the_input_rule(route):
    # the first statement after the docstring: pairs, q = _checked(k, pairs, q)
    first = _functions()[ROUTES[route].__name__].body[1]
    assert ast.unparse(first) == "pairs, q = _checked(k, pairs, q)"


def test_no_private_helper_serves_a_single_public_caller():
    # a private function called from one public function is a wrapper layer
    functions = _functions()
    callers = {name: set() for name in functions if name.startswith("_")}
    for name, node in functions.items():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in callers:
                callers[call.func.id].add(name)
    assert {name: len(users) for name, users in callers.items()} == {"_checked": 2}


class TestFermionicOracle:
    def test_valuation_floor(self):
        q = Fraction(4)
        for n in range(4):
            for k in range(n + 1):
                moment = integral_direct(k, ((n, 1),), q)
                for level in range(1, 5):
                    gap = fermionic_basis_sum(k, n, q, 3, level) - moment
                    assert padic_valuation(gap, 3) >= level

    def test_degenerate_case_is_exact(self):
        # constant integrand: the truncated sum already equals the moment
        assert fermionic_basis_sum(0, 0, 4, 3, 2) == integral_direct(0, ((0, 1),), Fraction(4))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            fermionic_basis_sum(0, 1, 2, 3, 1)
        with pytest.raises(DomainError):
            fermionic_basis_sum(0, 1, 4, 9, 1)
