"""Identity verification suites and the structured report they produce.

Verification standard.  The u-space families are checked coefficient-wise
as exact polynomial identities, which makes them q-independent.  The
E-moment families are rational functions of q of bounded degree; they are
asserted at every q in the configured sample set, and a truncated
alternating sum with a p-adic valuation gauge supplies an independent
cross-check.  This is the documented standard of evidence, not a formal
proof.

Known-misprinted variants of several identities are evaluated in a separate
counterexample section where they are expected to FAIL; an unexpectedly
passing counterexample is treated as a suite violation.

The report's bytes are ``json.dumps(report.to_dict(), indent=2)`` and a
newline.  ``IdentityReport.to_json`` writes them without the pure-Python
encoder that ``indent`` selects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _esc

from . import bernstein as qb
from . import integrals as qi
from . import stirling as qst
from .euler import (
    complement_moment,
    euler_closed,
    euler_number,
    euler_poly,
    euler_poly_closed,
    euler_table,
    fermionic_sum,
    reflection_check,
    shift_moment,
    shift_moment_sum,
)
from .kernel import DomainError, binomial_coeff, format_rational, padic_valuation
from .qcore import gaussian_binomial, stirling2
from .upoly import UPoly

__all__ = [
    "DEFAULT_QS",
    "IdentityReport",
    "ReportEntry",
    "SUITES",
    "VerifyConfig",
    "run_verify_suite",
]

DEFAULT_QS = (
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 5),
    Fraction(5, 4),
    Fraction(3),
)
SUITES = ("bernstein", "euler", "integrals", "stirling")
NMAX_CAP = 32

_RNG_SEED = 20211  # fixed so reports are byte-identical across runs


@dataclass(frozen=True)
class VerifyConfig:
    """Suite selection, q sample set, and size bounds for one verifier run."""

    suite: str = "all"
    qs: tuple[Fraction, ...] = DEFAULT_QS
    nmax: int = 12
    smax: int = 3
    kmax: int = 2
    include_printed_counterexamples: bool = False

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITES:
            raise DomainError(f"unknown suite: {self.suite!r}")
        if not self.qs:
            raise DomainError("the q sample set must be nonempty")
        if not 0 <= self.nmax <= NMAX_CAP:
            raise DomainError(f"nmax must lie in 0..{NMAX_CAP}")
        if not 1 <= self.smax <= 3:
            raise DomainError("smax must lie in 1..3")
        if self.kmax < 0:
            raise DomainError("kmax must be nonnegative")


@dataclass
class ReportEntry:
    identity_id: str
    params: dict[str, str]
    lhs: str
    rhs: str
    verdict: str  # "pass" | "fail"

    @property
    def sort_key(self):
        return (self.identity_id, tuple(sorted(self.params.items())))

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
        }


@dataclass
class IdentityReport:
    """All entries of one run, sorted; counterexamples are kept separate and
    are expected to carry verdict ``fail``."""

    entries: list[ReportEntry] = field(default_factory=list)
    counterexamples: list[ReportEntry] = field(default_factory=list)

    def __post_init__(self):
        self.entries.sort(key=lambda e: e.sort_key)
        self.counterexamples.sort(key=lambda e: e.sort_key)

    @property
    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.verdict == "fail"]

    @property
    def unexpected_passes(self) -> list[ReportEntry]:
        return [e for e in self.counterexamples if e.verdict == "pass"]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.unexpected_passes

    @property
    def summary(self) -> dict:
        return {
            "checks": len(self.entries),
            "failed": len(self.failures),
            "counterexamples": len(self.counterexamples),
            "counterexamples_failed_as_expected": len(self.counterexamples)
            - len(self.unexpected_passes),
            "counterexamples_unexpectedly_passing": len(self.unexpected_passes),
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "entries": [e.to_dict() for e in self.entries],
            "counterexamples": [e.to_dict() for e in self.counterexamples],
        }

    def to_json(self) -> str:
        """Exactly ``json.dumps(self.to_dict(), indent=2)`` and a newline.

        ``indent`` sends ``json.dumps`` through the pure-Python encoder; the
        same text is built here from one f-string per entry, with strings
        escaped by the encoder's own ``ensure_ascii`` routine.
        """
        summary = ",\n".join(f"    {_esc(k)}: {v}" for k, v in self.summary.items())
        return (
            f'{{\n  "summary": {{\n{summary}\n  }},\n'
            f'  "entries": {_entries_json(self.entries)},\n'
            f'  "counterexamples": {_entries_json(self.counterexamples)}\n}}\n'
        )


def _entries_json(entries: list[ReportEntry]) -> str:
    if not entries:
        return "[]"
    return "[\n" + ",\n".join(map(_entry_json, entries)) + "\n  ]"


def _entry_json(e: ReportEntry) -> str:
    if e.params:
        items = ",\n".join(f"        {_esc(k)}: {_esc(v)}" for k, v in e.params.items())
        params = f"{{\n{items}\n      }}"
    else:
        params = "{}"
    return (
        f'    {{\n      "identity_id": {_esc(e.identity_id)},\n'
        f'      "params": {params},\n'
        f'      "lhs": {_esc(e.lhs)},\n'
        f'      "rhs": {_esc(e.rhs)},\n'
        f'      "verdict": {_esc(e.verdict)}\n    }}'
    )


def _show(value) -> str:
    if isinstance(value, UPoly):
        return f"[{value._coeff_list()}]"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return str(value)


class _Collector:
    def __init__(self):
        self.entries: list[ReportEntry] = []
        self.counterexamples: list[ReportEntry] = []

    def _add(self, entry: ReportEntry, expected_fail: bool):
        (self.counterexamples if expected_fail else self.entries).append(entry)

    def exact(self, identity_id, params, lhs, rhs, *, expected_fail=False):
        entry = ReportEntry(
            identity_id=identity_id,
            params={k: _show(v) for k, v in params.items()},
            lhs=_show(lhs),
            rhs=_show(rhs),
            verdict="pass" if lhs == rhs else "fail",
        )
        self._add(entry, expected_fail)

    def close(self, identity_id, params, lhs, rhs, tol, *, relative=False):
        diff = abs(lhs - rhs)
        bound = tol * max(abs(lhs), abs(rhs)) if relative else tol
        entry = ReportEntry(
            identity_id=identity_id,
            params={k: _show(v) for k, v in params.items()},
            lhs=repr(float(lhs)),
            rhs=repr(float(rhs)),
            verdict="pass" if diff <= bound else "fail",
        )
        self._add(entry, False)

    def judged(self, identity_id, params, lhs, rhs, ok: bool):
        entry = ReportEntry(
            identity_id=identity_id,
            params={k: _show(v) for k, v in params.items()},
            lhs=_show(lhs),
            rhs=_show(rhs),
            verdict="pass" if ok else "fail",
        )
        self._add(entry, False)


def _brute_basis_upoly(k: int, n: int) -> UPoly:
    # independent oracle: multiply C(n,k) * u^k * (1-u)^(n-k) out directly
    if k < 0 or n < k:
        return UPoly.zero()
    return binomial_coeff(n, k) * UPoly.monomial(k) * UPoly((1, -1)) ** (n - k)


def _monomial_via_basis(j: int, n: int) -> UPoly:
    """sum_k monomial_in_basis(j, n)[k] B_{k,n}, which must equal u**j."""
    weights = qb.monomial_in_basis(j, n)
    return sum((weights[k] * qb.basis_upoly((k, n)) for k in range(n + 1)), UPoly.zero())


def _classical_basis(k: int, n: int, x: float) -> float:
    if k < 0 or n < k:
        return 0.0
    return binomial_coeff(n, k) * x**k * (1.0 - x) ** (n - k)


def _worst_on_grid(pairs):
    """(x, lhs, rhs) with the largest |lhs-rhs| from an iterable of triples."""
    worst = None
    worst_diff = -1.0
    for x, lhs, rhs in pairs:
        d = abs(lhs - rhs)
        if d > worst_diff:
            worst, worst_diff = (x, lhs, rhs), d
    return worst


def _suite_bernstein(cfg: VerifyConfig, col: _Collector) -> None:
    nmax = cfg.nmax
    us = (Fraction(1, 3), Fraction(2, 5))
    one_minus_u = UPoly((1, -1))
    u_poly = UPoly((0, 1))

    for n in range(nmax + 1):
        total = sum((qb.basis_upoly((k, n)) for k in range(n + 1)), UPoly.zero())
        col.exact("bernstein.partition_of_unity", {"n": n}, total, UPoly.one())

    for n in range(1, nmax + 1):
        for k in range(n + 1):
            lhs = one_minus_u * qb.basis_upoly((k, n - 1)) + u_poly * qb.basis_upoly(
                (k - 1, n - 1)
            )
            col.exact(
                "bernstein.degree_recurrence",
                {"k": k, "n": n},
                lhs,
                qb.basis_upoly((k, n)),
            )

    for n in range(nmax + 1):
        for k in range(n + 1):
            col.exact(
                "bernstein.symmetry_u_reflection",
                {"k": k, "n": n},
                qb.basis_upoly((n - k, n)).compose(one_minus_u),
                qb.basis_upoly((k, n)),
            )

    for n in range(nmax + 1):
        for k in range(n + 1):
            elevated = qb.degree_elevate((k, n))
            rhs = sum((c * qb.basis_upoly(i) for c, i in elevated), UPoly.zero())
            col.exact(
                "bernstein.degree_elevation",
                {"k": k, "n": n},
                qb.basis_upoly((k, n)),
                rhs,
            )

    for n in range(1, nmax + 1):
        for k in range(1, n + 1):
            lhs = Fraction(n - k + 1, k) * u_poly * qb.basis_upoly((k - 1, n))
            rhs = one_minus_u * qb.basis_upoly((k, n))
            col.exact("bernstein.neighbor_ratio", {"k": k, "n": n}, lhs, rhs)

    for n in range(nmax + 1):
        for k in range(n + 1):
            col.exact(
                "bernstein.monomial_expansion",
                {"k": k, "n": n},
                qb.basis_upoly((k, n)),
                _brute_basis_upoly(k, n),
            )

    for n in range(nmax + 1):
        for j in range(n + 1):
            col.exact(
                "bernstein.monomial_in_basis",
                {"j": j, "n": n},
                _monomial_via_basis(j, n),
                UPoly.monomial(j),
            )

    for n in range(1, nmax + 1):
        ones = [Fraction(1)] * (n + 1)
        linear = [Fraction(k, n) for k in range(n + 1)]
        for u in us:
            for method in qb.OPERATOR_METHODS:
                col.exact(
                    "bernstein.operator_constant",
                    {"n": n, "u": u, "method": method},
                    qb.operator_apply(ones, u, method),
                    Fraction(1),
                )
                col.exact(
                    "bernstein.operator_linear",
                    {"n": n, "u": u, "method": method},
                    qb.operator_apply(linear, u, method),
                    u,
                )

    rng = random.Random(_RNG_SEED)
    vectors = []
    for m in range(7):
        for n in range(1, nmax + 1):
            vectors.append((f"t^{m},n={n}", qb.monomial_samples(m, n)))
    for i in range(20):
        n = rng.randint(1, nmax)
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        vectors.append((f"random#{i},n={n}", vec))
    for tag, vec in vectors:
        for u in us:
            direct = qb.operator_apply(vec, u, "direct")
            for method in ("monomial", "difference"):
                col.exact(
                    "bernstein.operator_methods_agree",
                    {"samples": tag, "u": u, "method": method},
                    qb.operator_apply(vec, u, method),
                    direct,
                )

    for m in range(7):
        for n in range(1, min(nmax, 10) + 1):
            for u in us:
                lhs = n**m * qb.operator_apply(qb.monomial_samples(m, n), u)
                rhs = sum(
                    (
                        binomial_coeff(n, k)
                        * u**k
                        * math.factorial(k)
                        * stirling2(m, k)
                        for k in range(n + 1)
                    ),
                    Fraction(0),
                )
                col.exact(
                    "bernstein.operator_stirling_bridge",
                    {"m": m, "n": n, "u": u},
                    lhs,
                    rhs,
                )

    for k in range(5):
        for u in us:
            got = qb.generating_coeffs(k, u, 10)
            want = [qb.basis_eval_exact((k, m), u) for m in range(11)]
            col.exact("bernstein.generating_series", {"k": k, "u": u}, got, want)

    for n in range(7):
        for k in range(n + 1):
            unit = [Fraction(1) if i == k else Fraction(0) for i in range(n + 1)]
            col.exact(
                "bernstein.decasteljau_matches_direct",
                {"k": k, "n": n, "u": "2/5"},
                qb.decasteljau_eval(unit, Fraction(2, 5)),
                qb.basis_eval_exact((k, n), Fraction(2, 5)),
            )
    for i in range(5):
        n = rng.randint(1, 8)
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        for u in us:
            direct = sum(
                (c * qb.basis_eval_exact((k, n), u) for k, c in enumerate(vec)),
                Fraction(0),
            )
            col.exact(
                "bernstein.decasteljau_matches_direct",
                {"k": f"random#{i}", "n": n, "u": u},
                qb.decasteljau_eval(vec, u),
                direct,
            )

    # floating checks --------------------------------------------------
    xs = [i / 10 for i in range(1, 10)]
    h = 1e-5
    for q in (0.3, 0.7):
        for n in range(7):
            for k in range(n + 1):
                worst = _worst_on_grid(
                    (
                        x,
                        qb.basis_derivative((k, n), x, q),
                        (
                            qb.basis_eval_real((k, n), x + h, q)
                            - qb.basis_eval_real((k, n), x - h, q)
                        )
                        / (2 * h),
                    )
                    for x in xs
                )
                col.close(
                    "bernstein.derivative_matches_fd",
                    {"k": k, "n": n, "q": q, "x": worst[0]},
                    worst[1],
                    worst[2],
                    1e-6,
                    relative=True,
                )

    q_near_one = 1.0 - 1e-6
    xs_full = [i / 10 for i in range(11)]
    for n in range(7):
        for k in range(n + 1):
            worst = _worst_on_grid(
                (
                    x,
                    qb.basis_eval_real((k, n), x, q_near_one),
                    _classical_basis(k, n, x),
                )
                for x in xs_full
            )
            col.close(
                "bernstein.classical_limit_basis",
                {"k": k, "n": n, "x": worst[0]},
                worst[1],
                worst[2],
                1e-4,
            )
            worst = _worst_on_grid(
                (
                    x,
                    qb.basis_derivative((k, n), x, q_near_one),
                    qb.basis_derivative((k, n), x, 1.0),
                )
                for x in xs
            )
            col.close(
                "bernstein.classical_limit_derivative",
                {"k": k, "n": n, "x": worst[0]},
                worst[1],
                worst[2],
                1e-4,
            )

    for q in (0.3, 0.7, 1.5):
        for n in range(7):
            for k in range(n + 1):
                worst = _worst_on_grid(
                    (
                        x,
                        qb.basis_eval_real((n - k, n), 1.0 - x, 1.0 / q),
                        qb.basis_eval_real((k, n), x, q),
                    )
                    for x in xs_full
                )
                col.close(
                    "bernstein.symmetry_float_grid",
                    {"k": k, "n": n, "q": q, "x": worst[0]},
                    worst[1],
                    worst[2],
                    1e-12,
                )

    channel = qb.basis_eval_real((2, 3), 0.001, 1.0) + qb.basis_eval_real(
        (3, 3), 0.001, 1.0
    )
    col.close("bernstein.binary_channel_value", {}, channel, 2.998e-6, 1e-9)

    if cfg.include_printed_counterexamples:
        col.exact(
            "bernstein.monomial_expansion_printed",
            {"k": 1, "n": 4},
            qb.basis_upoly_printed((1, 4)),
            _brute_basis_upoly(1, 4),
            expected_fail=True,
        )


def _valuations_ok(vals: list) -> bool:
    prev = None
    for level, v in enumerate(vals, start=1):
        if v < level:
            return False
        if prev is not None and not (v > prev or v == math.inf):
            return False
        prev = v
    return True


def _suite_euler(cfg: VerifyConfig, col: _Collector) -> None:
    for q in cfg.qs:
        table = euler_table(q, 20)
        recurrence_ok = table.check_recurrence()
        col.judged(
            "euler.table_recurrence",
            {"q": q},
            "recurrence residuals all zero" if recurrence_ok else "violated",
            "recurrence residuals all zero",
            recurrence_ok,
        )
        for n in range(21):
            col.exact(
                "euler.closed_matches_recurrence",
                {"n": n, "q": q},
                euler_closed(n, q),
                table[n],
            )

    anchors = (
        (1, Fraction(1, 2), Fraction(-2, 3)),
        (4, Fraction(1, 2), Fraction(464, 765)),
        (4, Fraction(2), Fraction(-29, 765)),
    )
    for n, q, expected in anchors:
        col.exact(
            "euler.number_anchor", {"n": n, "q": q}, euler_number(n, q), expected
        )

    for q in cfg.qs:
        for n in range(11):
            col.exact(
                "euler.polynomial_at_zero",
                {"n": n, "q": q},
                euler_poly(n, 0, q),
                euler_number(n, q),
            )
        for n in range(9):
            for x in range(-2, 4):
                col.exact(
                    "euler.polynomial_closed_form",
                    {"n": n, "x": x, "q": q},
                    euler_poly(n, x, q),
                    euler_poly_closed(n, x, q),
                )
        for shift in range(1, 5):
            for m in range(9):
                col.exact(
                    "euler.shift_functional",
                    {"shift": shift, "m": m, "q": q},
                    shift_moment(shift, m, q),
                    shift_moment_sum(shift, m, q),
                )
        for n in range(11):
            for x in range(-2, 4):
                left, right = reflection_check(n, x, q)
                col.exact(
                    "euler.reflection", {"n": n, "x": x, "q": q}, left, right
                )
        for n in range(1, 13):
            col.exact(
                "euler.complement_reflected",
                {"n": n, "q": q},
                complement_moment(n, q),
                2 + euler_number(n, 1 / q),
            )

    p, q4 = 3, Fraction(4)
    for n in range(5):
        vals = [
            padic_valuation(fermionic_sum(n, q4, p, level) - euler_number(n, q4), p)
            for level in range(1, 6)
        ]
        col.judged(
            "euler.fermionic_valuation_growth",
            {"n": n, "p": p, "q": q4},
            vals,
            "strictly increasing and >= level",
            _valuations_ok(vals),
        )
    col.exact(
        "euler.fermionic_anchor",
        {"n": 1, "level": 1},
        fermionic_sum(1, q4, p, 1),
        Fraction(4),
    )
    col.exact(
        "euler.fermionic_anchor",
        {"n": 1, "level": 2},
        fermionic_sum(1, q4, p, 2),
        Fraction(17476),
    )

    if cfg.include_printed_counterexamples:
        col.exact(
            "euler.complement_printed",
            {"n": 1, "q": "1/2"},
            complement_moment(1, Fraction(1, 2)),
            2 + euler_number(1, Fraction(1, 2)),
            expected_fail=True,
        )


def _suite_integrals(cfg: VerifyConfig, col: _Collector) -> None:
    from itertools import combinations_with_replacement

    half = Fraction(1, 2)
    for q in cfg.qs:
        for n in range(1, min(cfg.nmax, 10) + 1):
            for k in range(n):
                col.exact(
                    "integrals.basis_direct_vs_reflected",
                    {"k": k, "n": n, "q": q},
                    qi.integral_basis(k, n, q),
                    qi.integral_basis_reflected(k, n, q),
                )
        for n in range(7):
            col.exact(
                "integrals.basis_top_reduces_to_euler",
                {"n": n, "q": q},
                qi.integral_basis(n, n, q),
                euler_number(n, q),
            )
        for n in range(11):
            total = sum(
                (qi.integral_basis(k, n, q) for k in range(n + 1)), Fraction(0)
            )
            col.exact(
                "integrals.partition_integral", {"n": n, "q": q}, total, Fraction(1)
            )
        for s in range(1, cfg.smax + 1):
            for ns in combinations_with_replacement(range(1, 6), s):
                total_deg = sum(ns)
                for k in range(cfg.kmax + 1):
                    if total_deg <= s * k:
                        continue
                    col.exact(
                        "integrals.product_direct_vs_reflected",
                        {"k": k, "ns": ",".join(map(str, ns)), "q": q},
                        qi.integral_product(k, ns, q, "direct"),
                        qi.integral_product(k, ns, q, "reflected"),
                    )

    col.exact(
        "integrals.product_anchor",
        {"k": 1, "ns": "2,2", "q": half, "method": "direct"},
        qi.integral_product(1, (2, 2), half, "direct"),
        Fraction(-16, 255),
    )
    col.exact(
        "integrals.product_anchor",
        {"k": 1, "ns": "2,2", "q": half, "method": "reflected"},
        qi.integral_product(1, (2, 2), half, "reflected"),
        Fraction(-16, 255),
    )
    col.exact(
        "integrals.basis_separating_anchor",
        {"k": 1, "n": 3, "q": half, "route": "reflected"},
        qi.integral_basis_reflected(1, 3, half),
        Fraction(2, 15),
    )
    col.exact(
        "integrals.basis_separating_anchor",
        {"k": 1, "n": 3, "q": half, "route": "direct"},
        qi.integral_basis(1, 3, half),
        Fraction(2, 15),
    )
    col.exact(
        "integrals.power_product_anchor",
        {"k": 1, "pairs": "(2,2)", "q": half},
        qi.integral_power_product(qi.IntegralInstance(1, ((2, 2),), half)),
        Fraction(-16, 255),
    )
    col.exact(
        "integrals.power_product_anchor",
        {"k": 0, "pairs": "(1,2)", "q": half},
        qi.integral_power_product(qi.IntegralInstance(0, ((1, 2),), half)),
        Fraction(31, 15),
    )

    pair_pool = [(n, m) for n in range(1, 4) for m in range(1, 3)]
    for q in cfg.qs:
        for s in range(1, min(cfg.smax, 2) + 1):
            for degrees in combinations_with_replacement(pair_pool, s):
                for k in range(cfg.kmax + 1):
                    inst = qi.IntegralInstance(k, degrees, q)
                    if inst.total_degree <= k * inst.multiplicity:
                        continue
                    col.exact(
                        "integrals.power_product_vs_direct",
                        {
                            "k": k,
                            "pairs": ";".join(f"({n},{m})" for n, m in degrees),
                            "q": q,
                        },
                        qi.integral_power_product(inst),
                        qi.integral_power_product_direct(inst),
                    )
        for ns in ((2,), (1, 2), (2, 3)):
            for k in range(cfg.kmax + 1):
                if sum(ns) <= len(ns) * k:
                    continue
                inst = qi.IntegralInstance(k, tuple((n, 1) for n in ns), q)
                col.exact(
                    "integrals.power_product_reduces_to_product",
                    {"k": k, "ns": ",".join(map(str, ns)), "q": q},
                    qi.integral_power_product(inst),
                    qi.integral_product(k, ns, q, "direct"),
                )

    p, q4 = 3, Fraction(4)
    for n in range(4):
        for k in range(n + 1):
            for level in range(1, 5):
                diff = qi.fermionic_basis_sum(k, n, q4, p, level) - qi.integral_basis(
                    k, n, q4
                )
                v = padic_valuation(diff, p)
                col.judged(
                    "integrals.fermionic_oracle",
                    {"k": k, "n": n, "level": level},
                    v,
                    f">= {level}",
                    v >= level,
                )

    if cfg.include_printed_counterexamples:
        col.exact(
            "integrals.basis_reflected_printed",
            {"k": 1, "n": 3, "q": half},
            qi.integral_basis_reflected(1, 3, 1 / half),
            qi.integral_basis(1, 3, half),
            expected_fail=True,
        )
        col.exact(
            "integrals.product_reflected_printed",
            {"k": 1, "ns": "1,2", "q": half},
            qi.integral_product(1, (1, 2), 1 / half, "reflected"),
            qi.integral_product(1, (1, 2), half, "direct"),
            expected_fail=True,
        )
        col.exact(
            "integrals.product_k0_printed",
            {"ns": "1,1", "q": half},
            2 + euler_number(2, half),
            qi.integral_product(0, (1, 1), half, "direct"),
            expected_fail=True,
        )
        inst = qi.IntegralInstance(1, ((1, 1), (2, 1)), half)
        col.exact(
            "integrals.power_product_printed",
            {"k": 1, "pairs": "(1,1);(2,1)", "q": half},
            qi.integral_power_product(qi.IntegralInstance(1, inst.degrees, 1 / half)),
            qi.integral_power_product_direct(inst),
            expected_fail=True,
        )


def _suite_stirling(cfg: VerifyConfig, col: _Collector) -> None:
    # built once: the bridge's basis side does not depend on q
    bridge = {(j, n): _monomial_via_basis(j, n) for n in range(9) for j in range(n + 1)}
    for q in cfg.qs:
        for k in range(1, 13):
            for j in range(k + 1):
                col.exact(
                    "stirling.gaussian_q_pascal",
                    {"k": k, "j": j, "q": q},
                    gaussian_binomial(k, j, q),
                    gaussian_binomial(k - 1, j - 1, q)
                    + q**j * gaussian_binomial(k - 1, j, q),
                )
        expansions = [qst.qstirling_expansion_upoly(n, q) for n in range(9)]
        for n, expansion in enumerate(expansions):
            col.exact(
                "stirling.monomial_expansion",
                {"n": n, "q": q},
                expansion,
                UPoly.monomial(n),
            )
        col.exact(
            "stirling.anchor_3_2",
            {"q": q},
            qst.q_stirling2(3, 2, q),
            2 + q,
        )
        for (j, n), total in bridge.items():
            col.exact(
                "stirling.basis_expansion_bridge",
                {"j": j, "n": n, "q": q},
                total,
                expansions[j],
            )

    for n in range(11):
        for k in range(n + 1):
            col.exact(
                "stirling.classical_at_q1",
                {"n": n, "k": k},
                qst.q_stirling2(n, k, Fraction(1)),
                Fraction(stirling2(n, k)),
            )
    for m in range(1, 13):
        for k in range(1, m):
            col.exact(
                "stirling.recurrence_classical",
                {"m": m, "k": k},
                stirling2(m, k),
                k * stirling2(m - 1, k) + stirling2(m - 1, k - 1),
            )


_SUITE_FUNCS = {
    "bernstein": _suite_bernstein,
    "euler": _suite_euler,
    "integrals": _suite_integrals,
    "stirling": _suite_stirling,
}


def run_verify_suite(config: VerifyConfig | None = None) -> IdentityReport:
    """Execute every registered check for the selected suites and return the
    sorted report.  Deterministic: identical configs produce identical
    reports (the operator sample vectors come from a fixed-seed generator).
    """
    cfg = config if config is not None else VerifyConfig()
    col = _Collector()
    selected = SUITES if cfg.suite == "all" else (cfg.suite,)
    for name in selected:
        _SUITE_FUNCS[name](cfg, col)
    return IdentityReport(entries=col.entries, counterexamples=col.counterexamples)
