"""The S_N column of scripts/padic_convergence.py.

The script prints only the first characters of each truncated sum, so it
reads them off leading digits instead of a full decimal conversion; the
column must still be the ``format_rational`` text, cut the same way.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qbernstein.euler import fermionic_sum
from qbernstein.kernel import format_rational

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "padic_convergence.py"


@pytest.fixture(scope="module")
def script():
    saved = list(sys.path)  # the script puts "src" on the path when loaded
    try:
        spec = importlib.util.spec_from_file_location("padic_convergence", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _cut(text: str) -> str:
    return text if len(text) <= 24 else text[:21] + "..."


_big = st.integers(-(10**30), 10**30)


@example(Fraction(10**23))  # 24 characters: printed whole
@example(Fraction(-(10**23)))  # 25: cut
@example(Fraction(10**21, 7))  # the cut falls inside the denominator
@example(Fraction(-(10**21) + 1, 10**21 - 1))
@given(st.builds(Fraction, _big, st.integers(1, 10**30)))
def test_column_matches_format_rational(script, s):
    assert script.sum_column(s) == _cut(format_rational(s))


def test_column_of_a_long_sum(script):
    s = fermionic_sum(1, Fraction(4, 7), 3, 7)  # 1,847 digits over 1,847
    assert len(str(s)) < 4300
    assert script.sum_column(s) == str(s)[:21] + "..."


def test_deep_level_prints_without_lifting_the_digit_limit(script, monkeypatch, capsys):
    # S_N at level 8 has a numerator of 5,543 digits, past the
    # interpreter's 4,300-digit int-to-str limit
    argv = ["padic_convergence.py", "--p", "3", "--q", "4/7", "--nmax", "1", "--levels", "8"]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[:2] == ["1", "8"] and last[2].endswith("...") and last[-1] == "8"
