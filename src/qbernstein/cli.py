"""Command-line front end (installed as ``qb``).

Subcommands: ``verify`` (identity suites), ``euler`` (E-number tables),
``bernstein`` (point evaluation and monomial coefficients), ``operator``
(floating operator demo over an x grid), ``padic`` (truncated-sum oracle
runner).  Rational inputs use the exact ``a/b`` literal format, real inputs
use decimal literals, grids are ``start:end:step``.

Exit codes: 0 all checks pass, 1 identity violation, 2 usage error
(including work-size limits), 3 domain error (pole q, bad prime, and so on).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path

from .bernstein import (
    basis_eval_exact,
    basis_eval_real,
    basis_upoly,
    monomial_samples,
    operator_eval_real,
)
from .euler import euler_number, euler_table, fermionic_sum
from .kernel import (
    DomainError,
    format_rational,
    padic_valuation,
    parse_rational,
    require_nonnegative,
    require_padic_convergence,
    require_pole_free,
)
from .tables import render_rows
from .verify import DEFAULT_QS, SUITES, IdentityReport, VerifyConfig, run_verify_suite

__all__ = ["main"]

# Work-size limits, checked before any work starts.  Operand sizes grow
# with bits(q), the bit length of max(|a|, b) for q = a/b.  On a 2-core
# x86-64 host with Python 3.11, `qb euler --q 11/7 --nmax 300` takes about
# 9-10 s (3 s at q = 2/3), and the E-table cost grows about as n**4, so n is
# also bounded by bits(q).  `qb padic` prints sums of about
# n * p**levels * bits(q) bits, and normalising and printing them grows
# about quadratically in that size: `qb padic --p 101 --q 1023/922 --n 11
# --levels 2` takes about 8 s; at n = 300 the E-table dominates
# (`--q 14/11 --n 300 --levels 5`, about 10 s).
EULER_NMAX_LIMIT = 300
EULER_WORK_LIMIT = 1200  # n * bits(q)
PADIC_WORK_LIMIT = 1_200_000  # (p + p**2 + ... + p**levels) * max(n, 1) * bits(q)
# `qb operator` evaluates n + 1 basis members per grid point, about 2 us
# each at n = 3 and 32 us at n = 1000 on the same host, so the largest
# admissible run takes about 10 s.
OPERATOR_NMAX_LIMIT = 1000  # bounds --n and the exponent M of --f t^M
OPERATOR_WORK_LIMIT = 300_000  # grid points * (n + 1)
# `qb bernstein upoly` prints n + 1 coefficients of up to n bits each, so
# its time and output grow about n**2: at n = 2000 it takes 0.3 s and prints
# 0.9 MB, at n = 4000 1.5 s and 3.5 MB.  `qb bernstein eval` shares the
# bound.
BERNSTEIN_NMAX_LIMIT = 2000  # bounds --n of `bernstein eval` and `bernstein upoly`


class _UsageError(Exception):
    pass


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like start:end:step")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed grid: {text!r}") from exc
    if not (step > 0 and end >= start):  # also refuses nan
        raise argparse.ArgumentTypeError("grid needs step > 0 and end >= start")
    return start, end, step


class _Parser(argparse.ArgumentParser):
    """Reads any negative number after a space as a value (``--q -3/2``,
    ``--x -1e-3``, ``--x -inf``, ``--grid -1:1:0.5``), as argparse reads
    ``--n -1``; subparsers are _Parsers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qb",
        description="Exact q-Bernstein / q-Euler / q-Stirling tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out stays out of args, so VerifyConfig's defaults apply
    p_verify = sub.add_parser(
        "verify", help="run the identity verification suites", argument_default=argparse.SUPPRESS
    )
    p_verify.add_argument("--suite", choices=("all",) + SUITES)
    p_verify.add_argument(
        "--q",
        action="append",
        type=_rational,
        dest="qs",
        metavar="A/B",
        help="rational sample value; repeatable "
        f"(default: {' '.join(map(format_rational, DEFAULT_QS))})",
    )
    p_verify.add_argument("--nmax", type=int)
    p_verify.add_argument("--smax", type=int)
    p_verify.add_argument("--kmax", type=int)
    p_verify.add_argument("--include-printed-counterexamples", action="store_true")
    p_verify.add_argument("--out", default=None, metavar="PATH", help="write the JSON report here")
    p_verify.set_defaults(handler=_cmd_verify)

    p_euler = sub.add_parser("euler", help="emit a table of E-numbers at one q")
    p_euler.add_argument("--q", type=_rational, required=True, metavar="A/B")
    p_euler.add_argument("--nmax", type=int, default=10)
    p_euler.add_argument("--format", choices=("csv", "json"), default="csv")
    p_euler.set_defaults(handler=_cmd_euler)

    p_bern = sub.add_parser("bernstein", help="basis evaluation and coefficients")
    bern_sub = p_bern.add_subparsers(dest="bernstein_command", required=True)
    p_eval = bern_sub.add_parser("eval", help="evaluate one basis member")
    p_eval.add_argument("--k", type=int, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--x", type=float, help="float path: x in [0,1], with --q")
    p_eval.add_argument("--q", type=float, help="float path: q > 0")
    p_eval.add_argument("--u", type=_rational, metavar="A/B", help="exact path: u = [x]_q")
    p_eval.set_defaults(handler=_cmd_bernstein_eval)
    p_upoly = bern_sub.add_parser("upoly", help="monomial coefficients of one basis member")
    p_upoly.add_argument("--k", type=int, required=True)
    p_upoly.add_argument("--n", type=int, required=True)
    p_upoly.add_argument("--format", choices=("csv", "json"), default="csv")
    p_upoly.set_defaults(handler=_cmd_bernstein_upoly)

    p_op = sub.add_parser("operator", help="evaluate the operator over an x grid")
    integrand = p_op.add_mutually_exclusive_group(required=True)
    integrand.add_argument("--f", metavar="t^M", help="monomial integrand, e.g. t^2")
    integrand.add_argument("--samples", metavar="PATH", help="CSV of k,f(k/n) rows")
    p_op.add_argument("--n", type=int, help="operator degree (required with --f)")
    p_op.add_argument("--q", type=float, required=True)
    p_op.add_argument("--grid", type=_grid, default="0:1:0.05")
    p_op.add_argument("--format", choices=("csv", "json"), default="csv")
    p_op.set_defaults(handler=_cmd_operator)

    p_padic = sub.add_parser("padic", help="truncated-sum oracle: S_N and valuations")
    p_padic.add_argument("--p", type=int, default=3)
    p_padic.add_argument("--q", type=_rational, default=Fraction(4), metavar="A/B")
    p_padic.add_argument("--n", type=int, required=True)
    p_padic.add_argument("--levels", type=int, default=5)
    p_padic.set_defaults(handler=_cmd_padic)

    return parser


def _cmd_verify(args) -> int:
    # a pole exits 3, before VerifyConfig's other refusals (exit 2)
    for q in getattr(args, "qs", ()):
        require_pole_free(q)
    try:
        cfg = VerifyConfig(**{k: v for k, v in vars(args).items() if k in VerifyConfig.__slots__})
    except DomainError as exc:
        # bad bounds / empty q list are command-line usage problems
        raise _UsageError(str(exc)) from exc
    out = Path(args.out) if args.out else None
    if out is not None and out.is_dir():
        raise _UsageError(f"--out {args.out} is a directory")
    if out is not None and not out.parent.is_dir():
        raise _UsageError(f"--out {args.out}: {out.parent} is not a directory")
    report = run_verify_suite(cfg)
    _print_report(report)
    if out is not None:
        try:
            out.write_text(report.to_json())
        except OSError as exc:
            raise _UsageError(f"cannot write the report: {exc}") from exc
    return 0 if report.ok else 1


def _print_report(report: IdentityReport) -> None:
    # the report keeps its entries sorted by identity id
    for identity_id, group in groupby(report.entries, key=lambda e: e.identity_id):
        verdicts = [entry.verdict for entry in group]
        passed, total = verdicts.count("pass"), len(verdicts)
        marker = "" if passed == total else "   <-- FAIL"
        print(f"{identity_id:<44} {passed}/{total}{marker}")
    if report.counterexamples:
        print()
        print("counterexamples (expected to fail):")
        for entry in report.counterexamples:
            status = (
                "failed as expected"
                if entry.verdict == "fail"
                else "UNEXPECTEDLY PASSING"
            )
            params = ", ".join(f"{k}={v}" for k, v in entry.params.items())
            print(f"{entry.identity_id:<44} {status}  ({params})")
    s = report.summary
    print()
    print(f"checks: {s['checks']}, failed: {s['failed']}")
    if report.counterexamples:
        print(
            "counterexamples confirmed: "
            f"{s['counterexamples_failed_as_expected']}/{s['counterexamples']}"
        )
    print(f"result: {'PASS' if report.ok else 'FAIL'}")


def _q_bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _check_euler_work(flag: str, n: int, q: Fraction) -> None:
    if n > EULER_NMAX_LIMIT or n * _q_bits(q) > EULER_WORK_LIMIT:
        raise _UsageError(
            f"{flag} {n} at q = {format_rational(q)} exceeds the work limit: n must stay "
            f"within {EULER_NMAX_LIMIT} and n times the bits of q within {EULER_WORK_LIMIT}"
        )


def _cmd_euler(args) -> int:
    _check_euler_work("--nmax", args.nmax, args.q)
    rows = [(n, format_rational(v)) for n, v in enumerate(euler_table(args.q, args.nmax).values)]
    sys.stdout.buffer.write(render_rows(["n", "E"], rows, args.format))
    return 0


def _check_bernstein_index(k: int, n: int) -> None:
    # the work limit (exit 2) before the size rule (exit 3)
    if n > BERNSTEIN_NMAX_LIMIT:
        raise _UsageError(f"--n {n} exceeds the work limit {BERNSTEIN_NMAX_LIMIT}")
    require_nonnegative(k, "k")
    require_nonnegative(n, "n")


def _cmd_bernstein_eval(args) -> int:
    exact = args.u is not None
    if exact and (args.x is not None or args.q is not None):
        raise _UsageError("give either --u (exact) or --x with --q (float), not both")
    if not exact and (args.x is None or args.q is None):
        raise _UsageError("the float path needs both --x and --q")
    _check_bernstein_index(args.k, args.n)
    if exact:
        print(format_rational(basis_eval_exact((args.k, args.n), args.u)))
        return 0
    try:
        value = basis_eval_real((args.k, args.n), args.x, args.q)
    except OverflowError as exc:
        raise DomainError(f"float overflow at x = {args.x}, q = {args.q}") from exc
    print(repr(value))
    return 0


def _cmd_bernstein_upoly(args) -> int:
    _check_bernstein_index(args.k, args.n)
    poly = basis_upoly((args.k, args.n))
    rows = [(i, format_rational(poly.coeff(i))) for i in range(args.n + 1)]
    sys.stdout.buffer.write(render_rows(["power", "coeff"], rows, args.format))
    return 0


def _parse_monomial_spec(text: str) -> int:
    s = text.strip()
    if s == "t":
        return 1
    if s.startswith("t^"):
        exponent = s[2:]
        if exponent.isdigit():
            return int(exponent)
    raise _UsageError(f"integrand must look like t^M, got {text!r}")


def _read_samples(path: str) -> list[Fraction]:
    import csv  # here, not above: only the samples reader needs it

    try:  # a BOM is no part of the first field; a bad byte or a huge field is a usage error
        with open(path, encoding="utf-8-sig", newline="") as handle:
            table = list(csv.reader(handle))
    except (OSError, UnicodeError, csv.Error) as exc:
        raise _UsageError(f"cannot read samples file: {exc}") from exc
    rows: dict[int, Fraction] = {}
    for lineno, row in enumerate(table, start=1):
        if not row or (lineno == 1 and not row[0].strip().lstrip("+-").isdigit()):
            continue  # blank line or header row
        if len(row) < 2:
            raise _UsageError(f"samples row {lineno} needs two columns: k,f(k/n)")
        try:
            k = int(row[0])
            value = parse_rational(row[1])
        except (ValueError, DomainError) as exc:
            raise _UsageError(f"malformed samples row {lineno}: {exc}") from exc
        if k in rows:
            raise _UsageError(f"duplicate sample index k={k}")
        rows[k] = value
    if not rows:
        raise _UsageError("samples file holds no data rows")
    n = max(rows)
    if sorted(rows) != list(range(n + 1)):
        raise _UsageError("sample indices must cover k = 0..n without gaps")
    return [rows[k] for k in range(n + 1)]


def _cmd_operator(args) -> int:
    if args.f is not None:
        if args.n is None:
            raise _UsageError("--f needs --n (the operator degree)")
        m, n = _parse_monomial_spec(args.f), args.n
    else:
        m, n = 0, len(args.samples) - 1
        if args.n is not None and args.n != n:
            raise _UsageError(f"--n {args.n} contradicts the samples file (n = {n})")
    if max(m, n) > OPERATOR_NMAX_LIMIT:
        raise _UsageError(
            f"degree {n} or exponent {m} exceeds the work limit {OPERATOR_NMAX_LIMIT}"
        )
    start, end, step = args.grid
    points = (end + 1e-12 - start) / step + 1  # inf or nan for an unbounded grid
    if not points * (n + 1) <= OPERATOR_WORK_LIMIT:
        raise _UsageError(
            f"--grid {start}:{end}:{step} with n = {n} exceeds the work limit: "
            f"the grid points times n + 1 must stay within {OPERATOR_WORK_LIMIT}"
        )
    samples = monomial_samples(m, n) if args.f is not None else args.samples
    grid = [
        round(start + i * step, 12)
        for i in range(int(points) + 1)
        if start + i * step <= end + 1e-12
    ]
    try:
        values = [float(s) for s in samples]
        rows = [(x, operator_eval_real(values, x, args.q)) for x in grid]
    except OverflowError as exc:
        raise DomainError(f"float overflow on the grid at q = {args.q}") from exc
    sys.stdout.buffer.write(render_rows(["x", "value"], rows, args.format))
    return 0


def _cmd_padic(args) -> int:
    # the cheap refusals and the work limits come before the prime test,
    # which is exact only below 2**64 and raises past it
    if args.levels < 1:
        raise _UsageError("--levels must be >= 1")
    _check_euler_work("--n", args.n, args.q)
    if args.p < 3 or args.p % 2 == 0:
        raise DomainError(f"p must be an odd prime, got {args.p}")
    work = 0
    for level in range(1, args.levels + 1):
        work += args.p**level * max(args.n, 1) * _q_bits(args.q)
        if work > PADIC_WORK_LIMIT:
            raise _UsageError(
                f"--p {args.p} --n {args.n} --levels {args.levels} exceeds the work limit: "
                f"(p + ... + p**levels) * max(n, 1) * bits(q) must stay within "
                f"{PADIC_WORK_LIMIT}"
            )
    require_padic_convergence(args.q, args.p, args.levels)
    limit = euler_number(args.n, args.q)
    rows = []
    for level in range(1, args.levels + 1):
        s = fermionic_sum(args.n, args.q, args.p, level)
        v = padic_valuation(s - limit, args.p)
        rows.append((level, format_rational(s), "inf" if v == float("inf") else v))
    sys.stdout.buffer.write(render_rows(["level", "sum", "valuation"], rows))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Exact output can run past Python's int-to-str digit limit.  Lift it
    # only after every user-supplied literal (argv, samples file) is parsed.
    limit = sys.get_int_max_str_digits()
    try:
        if getattr(args, "samples", None) is not None:
            args.samples = _read_samples(args.samples)
        sys.set_int_max_str_digits(0)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
