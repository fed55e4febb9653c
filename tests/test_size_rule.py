"""The size rule, k, n, ... >= 0, and the nonempty rule are each checked
by one function, and the E-table's integer layout is read through one.

The guard tests read the source: every ``if`` that tests ``name < 0`` or
``obj.attr < 0`` (or an ``or`` of such tests) and raises must be
``kernel.require_nonnegative``, and every ``if not name`` that raises
``DomainError`` must be ``kernel.require_nonempty``.  A function that reads
a prefix's ``.nums`` or ``.pending`` must be ``euler._integer_prefix`` or
call it, since any other prefix holds only the numerators folded so far.
The refusal matrix calls every public function that takes a size with -1 in
each size argument in turn, and checks that the message names the argument
and that no E-table work ran first; 0 in the same argument must compute.
A second matrix calls each caller of the nonempty rule with an empty list.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from qbernstein import euler
from qbernstein.bernstein import (
    decasteljau_eval,
    degree_elevate,
    generating_coeffs,
    monomial_samples,
    operator_apply,
    operator_eval_real,
)
from qbernstein.euler import (
    complement_moment,
    euler_closed,
    euler_number,
    euler_poly,
    euler_poly_closed,
    euler_table,
    fermionic_sum,
    moment,
    reflection_check,
    shift_moment,
    shift_moment_sum,
)
from qbernstein.integrals import fermionic_basis_sum, integral_direct, integral_reflected
from qbernstein.kernel import DomainError, binomial_coeff
from qbernstein.qcore import (
    forward_differences,
    forward_differences_binomial,
    q_factorial,
    qbinom_upoly,
    stirling2,
)
from qbernstein.stirling import q_stirling2, qstirling_expansion_upoly
from qbernstein.upoly import U, UPoly
from qbernstein.verify import VerifyConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "qbernstein"


def _is_negative_test(node) -> bool:
    """``name < 0`` or ``obj.attr < 0``, or an ``or`` of such comparisons."""
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        return all(_is_negative_test(value) for value in node.values)
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, (ast.Name, ast.Attribute))
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Lt)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value == 0
    )


def _is_size_check(node: ast.If) -> bool:
    return _is_negative_test(node.test) and any(isinstance(s, ast.Raise) for s in node.body)


def _is_nonempty_check(node: ast.If) -> bool:
    """``if not name:`` whose body raises ``DomainError``."""
    return (
        isinstance(node.test, ast.UnaryOp)
        and isinstance(node.test.op, ast.Not)
        and isinstance(node.test.operand, ast.Name)
        and any(
            isinstance(s, ast.Raise)
            and isinstance(s.exc, ast.Call)
            and isinstance(s.exc.func, ast.Name)
            and s.exc.func.id == "DomainError"
            for s in node.body
        )
    )


def _functions(source: str):
    """Yield (qualified name, node) for each top-level function and method."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                yield f"{prefix}{child.name}", child

    yield from visit(ast.parse(source), "")


def _checks(path: Path, is_check):
    """Yield the qualified name of the function around each ``if`` that
    ``is_check`` accepts."""
    for name, func in _functions(path.read_text()):
        for inner in ast.walk(func):
            if isinstance(inner, ast.If) and is_check(inner):
                yield name


def _owners(is_check):
    paths = sorted(SRC.glob("*.py"))
    return [(path.name, name) for path in paths for name in _checks(path, is_check)]


def test_the_size_rule_has_one_owner():
    assert _owners(_is_size_check) == [("kernel.py", "require_nonnegative")]


def test_the_nonempty_rule_has_one_owner():
    assert _owners(_is_nonempty_check) == [("kernel.py", "require_nonempty")]


def _layout_readers(source: str):
    """Yield (name, routed) for each function or method that reads
    ``.nums`` or ``.pending``; routed says it calls ``_integer_prefix``."""
    for name, func in _functions(source):
        nodes = list(ast.walk(func))
        if any(isinstance(n, ast.Attribute) and n.attr in ("nums", "pending") for n in nodes):
            calls = (n.func for n in nodes if isinstance(n, ast.Call))
            yield name, "_integer_prefix" in {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls}


def _unrouted_layout_readers(source: str) -> list[str]:
    return [name for name, routed in _layout_readers(source) if not routed and name != "_integer_prefix"]


def test_the_integer_layout_is_read_through_one_accessor():
    paths = sorted(SRC.glob("*.py"))
    assert [(path.name, name) for path in paths for name in _unrouted_layout_readers(path.read_text())] == []
    readers = {name for name, _ in _layout_readers((SRC / "euler.py").read_text())}
    assert {"_integer_prefix", "euler_poly", "moment"} <= readers


def test_the_layout_guard_passes_a_reader_only_through_the_accessor():
    assert _unrouted_layout_readers("def f(q):\n    return _prefix(q, 3).nums\n") == ["f"]
    assert _unrouted_layout_readers("def f(q):\n    return _integer_prefix(q, 3).nums\n") == []


HALF = Fraction(1, 2)

# (id, the argument's name, call with the size v in that argument)
CASES = [
    ("degree_elevate-k", "k", lambda v: degree_elevate((v, 2))),
    ("degree_elevate-n", "n", lambda v: degree_elevate((0, v))),
    ("monomial_samples-m", "m", lambda v: monomial_samples(v, 2)),
    ("monomial_samples-n", "n", lambda v: monomial_samples(2, v)),
    ("generating_coeffs-k", "k", lambda v: generating_coeffs(v, HALF, 3)),
    ("generating_coeffs-order", "order", lambda v: generating_coeffs(1, HALF, v)),
    ("euler_table", "nmax", lambda v: euler_table(HALF, v)),
    ("euler_number", "n", lambda v: euler_number(v, HALF)),
    ("euler_closed", "n", lambda v: euler_closed(v, HALF)),
    ("euler_poly", "n", lambda v: euler_poly(v, 1, HALF)),
    ("euler_poly_closed", "n", lambda v: euler_poly_closed(v, 1, HALF)),
    ("reflection_check", "n", lambda v: reflection_check(v, 1, HALF)),
    ("complement_moment", "n", lambda v: complement_moment(v, HALF)),
    ("shift_moment-m", "m", lambda v: shift_moment(1, v, HALF)),
    ("shift_moment_sum-m", "m", lambda v: shift_moment_sum(1, v, HALF)),
    ("moment-s", "s", lambda v: moment(v, 2, HALF)),
    ("moment-d", "d", lambda v: moment(2, v, HALF)),
    ("fermionic_sum", "n", lambda v: fermionic_sum(v, 4, 3, 2)),
    ("integral_direct", "k", lambda v: integral_direct(v, ((1, 1), (2, 1)), HALF)),
    ("integral_reflected", "k", lambda v: integral_reflected(v, ((2, 1),), HALF)),
    ("fermionic_basis_sum-k", "k", lambda v: fermionic_basis_sum(v, 2, 4, 3, 2)),
    ("fermionic_basis_sum-n", "n", lambda v: fermionic_basis_sum(1, v, 4, 3, 2)),
    ("binomial_coeff", "n", lambda v: binomial_coeff(v, 1)),
    ("q_factorial", "k", lambda v: q_factorial(v, HALF)),
    ("qbinom_upoly", "k", lambda v: qbinom_upoly(v, HALF)),
    ("stirling2-m", "m", lambda v: stirling2(v, 1)),
    ("stirling2-k", "k", lambda v: stirling2(2, v)),
    ("q_stirling2-n", "n", lambda v: q_stirling2(v, 1, HALF)),
    ("q_stirling2-k", "k", lambda v: q_stirling2(2, v, HALF)),
    ("qstirling_expansion_upoly", "n", lambda v: qstirling_expansion_upoly(v, HALF)),
    ("UPoly.monomial", "power", lambda v: UPoly.monomial(v)),
    ("UPoly.__pow__", "n", lambda v: U**v),
]

IDS = [case[0] for case in CASES]


class _UnreadCache(dict):
    def get(self, *args):
        raise AssertionError("the E-table cache was read")


@pytest.mark.parametrize("case_id, name, call", CASES, ids=IDS)
def test_negative_size_is_refused_by_the_owner(monkeypatch, case_id, name, call):
    if case_id == "euler_table":  # its size check runs inside _prefix, before the cache is read
        monkeypatch.setattr(euler, "_CACHE", _UnreadCache())
    else:
        def no_work(q, nmax):
            raise AssertionError("the E-table was read")

        monkeypatch.setattr(euler, "_prefix", no_work)
    with pytest.raises(DomainError, match=f"^{name} must be nonnegative, got -1$"):
        call(-1)


@pytest.mark.parametrize("call", [case[2] for case in CASES], ids=IDS)
def test_zero_size_computes(call):
    call(0)


# (id, the name in the message, call with an empty list)
EMPTY_CASES = [
    ("forward_differences", "samples", lambda: forward_differences([])),
    ("forward_differences_binomial", "samples", lambda: forward_differences_binomial([])),
    ("operator_apply", "samples", lambda: operator_apply([], HALF)),
    ("operator_eval_real", "samples", lambda: operator_eval_real([], 0.5, 0.5)),
    ("decasteljau_eval", "coefficient list", lambda: decasteljau_eval([], HALF)),
    ("VerifyConfig", "the q sample set", lambda: VerifyConfig(qs=())),
    ("integral_direct", "the factor list", lambda: integral_direct(0, (), HALF)),
    ("integral_reflected", "the factor list", lambda: integral_reflected(0, (), HALF)),
]


@pytest.mark.parametrize(
    "name, call", [case[1:] for case in EMPTY_CASES], ids=[case[0] for case in EMPTY_CASES]
)
def test_empty_list_is_refused_by_the_owner(name, call):
    with pytest.raises(DomainError, match=f"^{name} must be nonempty$"):
        call()
