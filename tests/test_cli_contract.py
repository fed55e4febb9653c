"""The CLI contract as a property: every argv maps to a documented exit code.

Hypothesis draws argv lists for the five subcommands from a grammar of
option values: rationals, poles, decimals in exponent form, nan and inf,
huge integers (a huge odd prime among them), malformed literals and
grids.  Each list runs in process through ``cli.main``, once with every
option spelled ``--opt v`` and once spelled ``--opt=v``, and the first
spelling runs a second time.  Then:

* the exit code is 0, 2 or 3, and 1 (an identity violation) comes only
  from ``verify``;
* no exception other than argparse's ``SystemExit`` leaves ``main``, and
  stderr never holds a traceback;
* both spellings give the same stdout, stderr and exit code;
* the two runs of one spelling give the same bytes.

``verify`` runs one suite at a time at small bounds, so the whole test
takes a few seconds.  The draws are derandomized, so tier-1 stays
deterministic.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qbernstein.cli import main

HUGE = str(10**30)
HUGE_PRIME = str(10**18 + 9)  # an odd prime far past trial division


def _values(good, bad):
    """One drawn value; a good one three times as often as a bad one."""
    return st.sampled_from(good * 3 + bad)


INTS = _values(["0", "1", "2", "3", "5", "7", "12"], ["-1", HUGE, "-" + HUGE, "1e3", "2.5", "x", ""])
POLES_AND_MALFORMED = ["0", "1", "-1", "3/0", "-5/0", "0.5", "1e-3", "-1e-3", "nan", "inf", "-inf", "1/2/3", ""]
RATIONALS = _values(["1/2", "-3/2", "2/4", "5/4", "-7/3", "4", "4/7", HUGE, f"-1/{HUGE}"], POLES_AND_MALFORMED)
FLOATS = _values(["0.5", "0.25", "1", "0", "2", "1e-3", "2.5e1", "-.5"], ["nan", "inf", "-inf", "1e400", "1/2", "x"])
GRIDS = _values(
    ["0:1:0.25", "-1:1:0.5", "0:1:0.5", "-1e-3:1e-3:1e-3"],
    ["0:1:1e-9", "0:inf:1", "-inf:0:1", "nan:1:1", "1:0:1", "0:1:0", "0:1:-0.5", "0:1", "a:b:c"],
)
FORMATS = _values(["csv", "json"], ["xml"])


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
    ],
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
        ("--f", _values(["t", "t^0", "t^2", "t^3"], [f"t^{HUGE}", "t^-1", "t^", "x"])),
        ("--n", INTS),
        ("--q", FLOATS),
    ],
    [("--grid", GRIDS), ("--format", FORMATS)],
)
_padic = _command(
    ["padic"],
    [("--n", INTS)],
    [
        ("--p", _values(["3", "5"], ["2", "9", "-3", "0", "101", HUGE, HUGE_PRIME])),
        ("--q", _values(["4", "4/7", "-2", "7/4", "6", "11/6", "-4"], POLES_AND_MALFORMED + [HUGE])),
        ("--levels", _values(["1", "2", "3", "5"], ["0", "-1", HUGE])),
    ],
)
ARGV = st.one_of(_verify, _euler, _eval_exact, _eval_float, _upoly, _operator, _padic)


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


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
@example((["padic"], [("--n", "1"), ("--p", HUGE_PRIME), ("--levels", "1")]))
def test_every_argv_maps_to_a_documented_exit_code(command):
    words, options = command
    spaced = _run(_spell(words, options, joined=False))
    code, _, err = spaced
    assert code in (0, 2, 3) or (code == 1 and words == ["verify"])
    assert b"Traceback" not in err
    assert _run(_spell(words, options, joined=True)) == spaced
    assert _run(_spell(words, options, joined=False)) == spaced
