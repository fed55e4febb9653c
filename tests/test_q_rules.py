"""Each q the package excludes is excluded by exactly one function.

The guard test reads the source: every ``if`` that compares the name ``q``
with 0, 1 or -1 and raises ``DomainError`` must sit in the owner of its
rule.  The refusal matrix calls every public exact-q function at each q it
excludes, spelled as an int, a Fraction and an ``a/b`` string, and checks
the owner's message; a neighbouring admissible input must still compute.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from qbernstein import euler
from qbernstein.euler import (
    EulerTable,
    complement_moment,
    euler_closed,
    euler_number,
    euler_poly,
    euler_poly_closed,
    euler_table,
    moment,
    reflection_check,
    shift_moment,
)
from qbernstein.integrals import integral_direct, integral_reflected
from qbernstein.kernel import DomainError
from qbernstein.qcore import gaussian_binomial, q_number_int, q_number_real, qbinom_upoly
from qbernstein.stirling import q_stirling2, qstirling_expansion_upoly
from qbernstein.upoly import U
from qbernstein.verify import VerifyConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "qbernstein"

# (file, function) -> the q values its one check excludes
OWNERS = {
    ("euler.py", "_require_recurrence_q"): {-1},
    ("euler.py", "_require_closed_form_q"): {1, -1},
    ("kernel.py", "require_q_power_domain"): {0},
    ("kernel.py", "require_pole_free"): {0, 1, -1},
    ("euler.py", "reflection_check"): {0},
    ("kernel.py", "require_real_pole_free"): {1},
    ("kernel.py", "require_qfactorial_domain"): {0, -1},
}


def _constant(node) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and node.operand.value == 1
    ):
        return -1
    return None


def _excluded_values(test) -> set[int]:
    """The constants 0, 1, -1 that ``test`` compares the name q with by ==."""
    found = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if not isinstance(op, ast.Eq):
                continue
            for name, value in ((left, right), (right, left)):
                if isinstance(name, ast.Name) and name.id == "q" and _constant(value) is not None:
                    found.add(_constant(value))
    return found


def _raises_domain_error(body) -> bool:
    return any(
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "DomainError"
        for statement in body
        for node in ast.walk(statement)
    )


def _q_checks(path: Path):
    """Yield (qualified function name, excluded values) for each q check."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                for inner in ast.walk(child):
                    if isinstance(inner, ast.If) and _raises_domain_error(inner.body):
                        values = _excluded_values(inner.test)
                        if values:
                            yield f"{prefix}{child.name}", values

    yield from visit(ast.parse(path.read_text()), "")


def test_each_q_exclusion_has_one_owner():
    checks = [
        (path.name, name, values)
        for path in sorted(SRC.glob("*.py"))
        for name, values in _q_checks(path)
    ]
    found = {(f, name): values for f, name, values in checks}
    assert found == OWNERS
    assert len(checks) == len(OWNERS), "an owner holds more than one check"


def _spellings(value: int):
    """The excluded value as an int, a Fraction and an a/b string."""
    return [value, Fraction(value), f"{3 * value}/3"]


RECURRENCE = r"^q = -1 makes 1 \+ q\*\*n vanish for odd n$"
CLOSED_FORM = r"^q = 1 and q = -1 are poles of the closed form$"
NEGATIVE_X = r"^negative x requires q != 0$"
RECIPROCAL = r"^q = 0 has no reciprocal parameter$"


def _moment_rule(q):
    return rf"^q = {q} is a pole of the moment identities; q must avoid 0, 1 and -1$"


def _qfactorial_rule(q):
    return rf"^q = {q} is excluded from the q-factorial family at every k$"


# (name, call at q, excluded values, message at q, whether it reads the E-table
# only through the rule-1 owner, neighbouring call that must compute)
CASES = [
    ("euler_table", lambda q: euler_table(q, 3), (-1,), RECURRENCE, True,
     lambda: euler_table(1, 3).values == (1, Fraction(-1, 2), 0, Fraction(1, 4))),
    ("euler_number", lambda q: euler_number(3, q), (-1,), RECURRENCE, True,
     lambda: euler_number(3, 1) == Fraction(1, 4)),
    ("moment", lambda q: moment(1, 2, q), (-1,), RECURRENCE, True,
     lambda: moment(1, 2, 1) == Fraction(-1, 4)),  # E_1 - 2 E_2 + E_3 at q = 1
    ("EulerTable", lambda q: EulerTable(q, (Fraction(1),)), (-1,), RECURRENCE, True,
     lambda: EulerTable(1, (Fraction(1),)).q == 1),
    ("euler_closed", lambda q: euler_closed(2, q), (1, -1), CLOSED_FORM, False,
     lambda: euler_closed(2, 2) == Fraction(1, 15)),
    ("euler_poly", lambda q: euler_poly(2, 1, q), (1, -1), CLOSED_FORM, False,
     lambda: euler_poly(2, 1, 2) == euler_poly_closed(2, 1, 2)),
    ("euler_poly_closed", lambda q: euler_poly_closed(2, 1, q), (1, -1), CLOSED_FORM, False,
     lambda: euler_poly_closed(2, 1, Fraction(1, 2)) == euler_poly(2, 1, Fraction(1, 2))),
    ("shift_moment", lambda q: shift_moment(1, 2, q), (1, -1), CLOSED_FORM, False,
     lambda: shift_moment(1, 2, 2) == 0),
    ("reflection_check-pole", lambda q: reflection_check(2, 1, q), (1, -1), CLOSED_FORM, False,
     lambda: len(set(reflection_check(2, 1, 2))) == 1),
    ("q_number_int", lambda q: q_number_int(-1, q), (0,), NEGATIVE_X, False,
     lambda: q_number_int(1, 0) == 1),
    ("euler_poly-negative-x", lambda q: euler_poly(2, -1, q), (0,), NEGATIVE_X, False,
     lambda: euler_poly(2, 1, 0) == euler_poly_closed(2, 1, 0)),
    ("euler_poly_closed-negative-x", lambda q: euler_poly_closed(2, -1, q), (0,), NEGATIVE_X,
     False, lambda: euler_poly_closed(2, 1, 0) == euler_poly(2, 1, 0)),
    ("complement_moment", lambda q: complement_moment(2, q), (0, 1, -1), _moment_rule, False,
     lambda: complement_moment(2, 2) == 2 + euler_number(2, Fraction(1, 2))),
    ("integral_direct", lambda q: integral_direct(1, ((1, 1), (2, 1)), q), (0, 1, -1),
     _moment_rule, False,
     lambda: integral_direct(1, ((1, 1), (2, 1)), 2) == integral_reflected(1, ((1, 1), (2, 1)), 2)),
    ("integral_reflected", lambda q: integral_reflected(1, ((2, 1),), q), (0, 1, -1),
     _moment_rule, False,
     lambda: integral_reflected(1, ((2, 1),), "3/1") == integral_direct(1, ((2, 1),), 3)),
    ("VerifyConfig", lambda q: VerifyConfig(qs=(q,)), (0, 1, -1), _moment_rule, False,
     lambda: VerifyConfig(qs=("2",)).qs == (2,)),
    ("reflection_check", lambda q: reflection_check(2, 1, q), (0,), RECIPROCAL, False,
     lambda: len(set(reflection_check(2, 1, Fraction(1, 2)))) == 1),
    ("qbinom_upoly-0", lambda q: qbinom_upoly(0, q), (0, -1), _qfactorial_rule, False,
     lambda: qbinom_upoly(0, 1) == U**0),
    ("qbinom_upoly-1", lambda q: qbinom_upoly(1, q), (0, -1), _qfactorial_rule, False,
     lambda: qbinom_upoly(1, 2) == U),
    ("qbinom_upoly-3", lambda q: qbinom_upoly(3, q), (0, -1), _qfactorial_rule, False,
     lambda: qbinom_upoly(3, 1)(3) == 1),
    ("q_stirling2", lambda q: q_stirling2(3, 2, q), (0, -1), _qfactorial_rule, False,
     lambda: q_stirling2(3, 2, 1) == 3),
    ("q_stirling2-empty", lambda q: q_stirling2(0, 0, q), (0, -1), _qfactorial_rule, False,
     lambda: q_stirling2(0, 0, 2) == 1),
    ("qstirling_expansion_upoly", lambda q: qstirling_expansion_upoly(2, q), (0, -1),
     _qfactorial_rule, False, lambda: qstirling_expansion_upoly(2, 2) == U**2),
]

MATRIX = [
    pytest.param(call, q, message, rule_one, id=f"{name}-{type(q).__name__}{q}")
    for name, call, values, message, rule_one, _ in CASES
    for value in values
    for q in _spellings(value)
]


class _UnreadCache(dict):
    def get(self, *args):
        raise AssertionError("the E-table cache was read")


@pytest.mark.parametrize("call, q, message, rule_one", MATRIX)
def test_excluded_q_is_refused_by_its_owner(monkeypatch, call, q, message, rule_one):
    # The recurrence's own owner runs inside _prefix, before the cache is
    # read; every other rule must refuse before _prefix is called at all.
    if rule_one:
        monkeypatch.setattr(euler, "_CACHE", _UnreadCache())
    else:
        def no_work(q, nmax):
            raise AssertionError("the E-table was read")

        monkeypatch.setattr(euler, "_prefix", no_work)
    pattern = message(Fraction(q)) if callable(message) else message
    with pytest.raises(DomainError, match=pattern):
        call(q)


@pytest.mark.parametrize("neighbour", [case[-1] for case in CASES], ids=[case[0] for case in CASES])
def test_admissible_neighbour_computes(neighbour):
    assert neighbour()


@pytest.mark.parametrize("q", _spellings(-1), ids=lambda q: f"{type(q).__name__}{q}")
def test_gaussian_binomial_has_a_value_at_q_minus_one(q):
    # a polynomial in q with integer coefficients: no q is excluded
    assert gaussian_binomial(3, 1, q) == 1
    assert gaussian_binomial(4, 2, q) == 2
    assert gaussian_binomial(4, 1, q) == 0


FLOAT_PATH = r"^q = 1 is a pole of the floating path \(1 - q\*\*x\) / \(1 - q\)$"


@pytest.mark.parametrize("q", [1.0, 1, Fraction(1)], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda q: q_number_real(0.5, q),
    ],
    ids=["q_number_real"],
)
def test_float_path_refuses_q_one_with_one_message(call, q):
    with pytest.raises(DomainError, match=FLOAT_PATH):
        call(q)


def test_float_path_neighbours_compute():
    assert q_number_real(2.0, 2.0) == 3.0

