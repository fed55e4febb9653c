"""The CLI contract as a property: every argv maps to a documented exit code.

Hypothesis draws argv lists for every subcommand and option from a grammar
of values: rationals, poles, decimals in exponent form, nan and inf, huge
integers (a huge odd prime among them), malformed literals and grids,
``--out`` targets, and ``--samples`` files, readable or not, written once
into the test's working directory.  Each list runs in process through
``cli.main``, once with every option spelled ``--opt v`` and once spelled
``--opt=v``, and the first spelling runs a second time.  Then:

* the exit code is 0, 2 or 3, and 1 (an identity violation) comes only
  from ``verify``;
* no exception other than argparse's ``SystemExit`` leaves ``main``, and
  stderr never holds a traceback;
* both spellings give the same stdout, stderr and exit code;
* the two runs of one spelling give the same bytes.

``verify`` runs one suite at small bounds, or the ``stirling`` suite,
which ignores them, so the whole test takes a few seconds.  Each of the
nine command grammars in ``BRANCHES`` gets its own derandomized run of 23
examples, so tier-1 stays deterministic, and a few listed argv lists run as
well.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qbernstein.cli import main

HUGE = str(10**30)
HUGE_PRIME = str(10**18 + 9)  # an odd prime; the work limit refuses it before the prime test


def _values(good, bad):
    """One drawn value; a good one three times as often as a bad one."""
    return st.sampled_from(good * 3 + bad)


INTS = _values(["0", "1", "2", "3", "5", "7", "12"], ["-1", HUGE, "-" + HUGE, "1e3", "2.5", "x", ""])
POLES_AND_MALFORMED = ["0", "1", "-1", "3/0", "-5/0", "0.5", "1e-3", "-1e-3", "nan", "inf", "-inf", "1/2/3", ""]
RATIONALS = _values(["1/2", "-3/2", "2/4", "5/4", "-7/3", "4", "4/7", HUGE, f"-1/{HUGE}"], POLES_AND_MALFORMED)
FLOATS = _values(
    ["0.5", "0.25", "1", "0", "2", "1e-3", "2.5e1", "-.5"], ["nan", "inf", "-inf", "1e400", "1/2", "x", "2000"]
)
GRIDS = _values(
    ["0:1:0.25", "-1:1:0.5", "0:1:0.5", "-1e-3:1e-3:1e-3"],
    ["0:1:1e-9", "0:inf:1", "-inf:0:1", "nan:1:1", "1:0:1", "0:1:0", "0:1:-0.5", "0:1", "a:b:c", "0:1100:100"],
)
FORMATS = _values(["csv", "json"], ["xml"])
OUT = _values(["report.json"], [".", "missing/report.json"])
SAMPLES = {
    "plain.csv": b"0,1\n1,1/2\n2,1/4\n",
    "header.csv": b"k,f\n0,1\n1,1\n2,1\n",
    "bom.csv": b"\xef\xbb\xbf0,1\n1,1/2\n2,1/4\n",
    "gap.csv": b"0,1\n2,1\n",
    "repeated.csv": b"0,1\n0,2\n1,1\n",
    "empty.csv": b"",
    "latin1.csv": b"0,1\n1,\xff\n",
    "long.csv": b"0," + b"1" * 200_000 + b"\n",  # past csv's field limit
}
SAMPLE_PATHS = _values(list(SAMPLES)[:3], list(SAMPLES)[3:] + ["missing.csv", "."])  # the first three read


@pytest.fixture(scope="module", autouse=True)
def _in_a_directory_of_samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, data in SAMPLES.items():
        (root / name).write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        yield


def _command(words, required, optional=()):
    """argv parts for one subcommand: each required option (one of them
    now and then left out) and each optional option or not, in order."""
    names = [name for name, _ in required]
    pairs = [st.tuples(st.just(name), values) for name, values in required]
    extras = [st.one_of(st.just(()), st.tuples(st.just(name), values)) for name, values in optional]
    drop = st.integers(-3, len(names) - 1)  # >= 0 leaves that required option out

    def assemble(parts):
        *given, left_out = parts
        chosen = [pair for i, pair in enumerate(given[: len(names)]) if i != left_out]
        return words, chosen + [pair for pair in given[len(names) :] if pair]

    return st.tuples(*pairs, *extras, drop).map(assemble)


_verify = _command(
    ["verify"],
    [
        ("--suite", _values(["bernstein", "euler", "integrals", "stirling"], ["nope"])),
        ("--q", RATIONALS),
    ],
    [
        ("--q", RATIONALS),
        ("--nmax", _values(["1", "2", "3"], ["0", "33", "-1", HUGE, "x"])),
        ("--smax", _values(["1", "2"], ["0", "4"])),
        ("--kmax", _values(["0", "1"], ["5", "-1"])),
        ("--include-printed-counterexamples", st.none()),
        ("--out", OUT),
    ],
)
_verify_large = _command(  # valid large bounds, which the stirling suite ignores
    ["verify", "--suite", "stirling"],
    [("--q", RATIONALS)],
    [("--nmax", st.integers(4, 32).map(str)), ("--smax", st.just("3")), ("--kmax", st.integers(2, 4).map(str))]
    + [("--include-printed-counterexamples", st.none()), ("--out", OUT)],
)
_euler = _command(["euler"], [("--q", RATIONALS)], [("--nmax", INTS), ("--format", FORMATS)])
_eval_exact = _command(
    ["bernstein", "eval"], [("--k", INTS), ("--n", INTS), ("--u", RATIONALS)], [("--x", FLOATS)]
)
_eval_float = _command(
    ["bernstein", "eval"], [("--k", INTS), ("--n", INTS), ("--x", FLOATS), ("--q", FLOATS)], [("--u", RATIONALS)]
)
_upoly = _command(["bernstein", "upoly"], [("--k", INTS), ("--n", INTS)], [("--format", FORMATS)])
_operator = _command(
    ["operator"],
    [
        ("--f", _values(["t", "t^0", "t^2", "t^3"], [f"t^{HUGE}", "t^-1", "t^", "x", "exp(t)"])),
        ("--n", INTS),
        ("--q", FLOATS),
    ],
    [("--grid", GRIDS), ("--format", FORMATS)],
)
_samples = _command(
    ["operator"],
    [("--samples", SAMPLE_PATHS), ("--q", FLOATS)],
    [("--n", INTS), ("--grid", GRIDS), ("--format", FORMATS)],
)
_padic = _command(
    ["padic"],
    [("--n", INTS)],
    [
        ("--p", _values(["3", "5"], ["1", "2", "9", "-3", "0", "101", HUGE, HUGE_PRIME])),
        ("--q", _values(["4", "4/7", "-2", "7/4", "6", "11/6", "-4"], POLES_AND_MALFORMED + [HUGE])),
        ("--levels", _values(["1", "2", "3", "5"], ["0", "-1", HUGE])),
    ],
)
BRANCHES = {
    "verify": _verify,
    "verify-large": _verify_large,
    "euler": _euler,
    "eval-exact": _eval_exact,
    "eval-float": _eval_float,
    "upoly": _upoly,
    "operator": _operator,
    "samples": _samples,
    "padic": _padic,
}


def _spell(words, options, joined):
    argv = list(words)
    for name, value in options:
        if value is None:
            argv.append(name)
        elif joined:
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


def _run(argv):
    """(exit code, stdout bytes, stderr bytes) of ``main(argv)`` in process."""
    out, err = io.BytesIO(), io.BytesIO()
    out_text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    err_text = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(words, options):
    spaced = _run(_spell(words, options, joined=False))
    code, _, err = spaced
    assert code in (0, 2, 3) or (code == 1 and words[0] == "verify")
    assert b"Traceback" not in err
    assert _run(_spell(words, options, joined=True)) == spaced
    assert _run(_spell(words, options, joined=False)) == spaced


# One derandomized run per branch.  A single draw over all nine spent 75 of
# 200 examples on `bernstein eval` and 12 on `operator --samples`: Hypothesis
# follows a drawn example with up to five mutants that copy one of its values
# over another drawn from the same strategy, so a branch with such pairs
# (--k and --n, --x and --q) runs in streaks, and one without them does not.
@pytest.mark.parametrize("branch", BRANCHES.values(), ids=BRANCHES.keys())
@settings(max_examples=23, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_maps_to_a_documented_exit_code(branch, data):
    _check(*data.draw(branch))


@pytest.mark.parametrize(
    "words, options",
    [
        (["padic"], [("--n", "1"), ("--p", HUGE_PRIME), ("--levels", "1")]),
        (["bernstein", "eval"], [("--k", "1"), ("--n", "2"), ("--x", "2000"), ("--q", "2")]),
        (["operator"], [("--f", "t^2"), ("--n", "3"), ("--q", "2"), ("--grid", "0:1100:100")]),
        (["verify", "--suite", "stirling"], [("--q", "1/2"), ("--include-printed-counterexamples", None)]),
        (["verify", "--suite", "stirling"], [("--q", "1/2"), ("--out", str(Path(__file__).parent))]),
        (["operator"], [("--samples", "latin1.csv"), ("--q", "0.5")]),
        (["operator"], [("--samples", "long.csv"), ("--q", "0.5")]),
    ],
    ids=["huge-prime", "eval-x-2000", "grid-1100", "printed", "out-directory", "latin1", "long-field"],
)
def test_listed_argv_maps_to_a_documented_exit_code(words, options):
    _check(words, options)
