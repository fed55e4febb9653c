"""Identity verification suites and the structured report they produce.

Verification standard.  The u-space families are checked coefficient-wise
as exact polynomial identities, which makes them q-independent.  The
E-moment families are rational functions of q of bounded degree; they are
asserted at every q in the configured sample set, and a truncated
alternating sum with a p-adic valuation gauge supplies an independent
cross-check.  This is the documented standard of evidence, not a formal
proof.

Each suite is a generator over the ``VerifyConfig``.  It yields one tuple
per check: ``(identity_id, params, lhs, rhs)``, which passes when
``lhs == rhs``, or ``(identity_id, params, lhs, rhs, ok)`` when the check
decides its own verdict (a float tolerance, a valuation gauge, a recurrence
residual).  ``_entry`` prints the values into a ``ReportEntry``.  The
report sorts its entries by identity and params, so the order in which a
suite yields is free; the key order inside ``params`` is printed as given.

Known-misprinted variants of several identities are yielded by a separate
generator into the counterexample section, where they are expected to FAIL;
an unexpectedly passing counterexample is treated as a suite violation.

``run_verify_suite`` runs the selected suites in workers, one per
available CPU and at most one per suite: the calling process and forked
children.  Each worker takes the suites one at a time from a shared queue,
so which worker runs a suite varies from run to run.  The suites share
nothing but per-process caches, every identity id begins with its suite's
name, and the report is sorted, so the report's bytes depend neither on
the CPU count nor on which worker ran which suite.

The report's bytes are ``json.dumps(report.to_dict(), indent=2)`` and a
newline.  ``IdentityReport.to_json`` writes them without the pure-Python
encoder that ``indent`` selects.
"""

from __future__ import annotations

import math
import os
import random
import threading
from fractions import Fraction
from itertools import combinations_with_replacement
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
from .kernel import (
    DomainError,
    FrozenRecord,
    Record,
    binomial_coeff,
    format_rational,
    padic_valuation,
)
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
KMAX_CAP = 4  # a moment needs degree > k per factor, and no factor has degree above 5

_RNG_SEED = 20211  # fixed so reports are byte-identical across runs


class VerifyConfig(FrozenRecord):
    """Suite selection, q sample set, and size bounds for one verifier run."""

    __slots__ = ("suite", "qs", "nmax", "smax", "kmax", "include_printed_counterexamples")

    def __init__(
        self,
        suite: str = "all",
        qs: tuple[Fraction, ...] = DEFAULT_QS,
        nmax: int = 12,
        smax: int = 3,
        kmax: int = 2,
        include_printed_counterexamples: bool = False,
    ):
        self._init(suite, qs, nmax, smax, kmax, include_printed_counterexamples)
        if suite != "all" and suite not in SUITES:
            raise DomainError(f"unknown suite: {suite!r}")
        if not qs:
            raise DomainError("the q sample set must be nonempty")
        values = [Fraction(q) for q in qs]
        for i, q in enumerate(values):
            if q in values[:i]:
                raise DomainError(f"q = {format_rational(q)} is repeated in the q sample set")
        if not 1 <= nmax <= NMAX_CAP:
            raise DomainError(f"nmax must lie in 1..{NMAX_CAP}")
        if not 1 <= smax <= 3:
            raise DomainError("smax must lie in 1..3")
        if not 0 <= kmax <= KMAX_CAP:
            raise DomainError(f"kmax must lie in 0..{KMAX_CAP}")


class ReportEntry(Record):
    __slots__ = ("identity_id", "params", "lhs", "rhs", "verdict")

    def __init__(
        self, identity_id: str, params: dict[str, str], lhs: str, rhs: str, verdict: str
    ):
        self.identity_id = identity_id
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict  # "pass" | "fail"

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


class IdentityReport(Record):
    """All entries of one run, sorted in place; counterexamples are kept
    separate and are expected to carry verdict ``fail``."""

    __slots__ = ("entries", "counterexamples")

    def __init__(
        self,
        entries: list[ReportEntry] | None = None,
        counterexamples: list[ReportEntry] | None = None,
    ):
        self.entries = [] if entries is None else entries
        self.counterexamples = [] if counterexamples is None else counterexamples
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


def _entry(check: tuple) -> ReportEntry:
    """A report entry from ``(identity_id, params, lhs, rhs)``, judged by
    ``lhs == rhs``, or from ``(identity_id, params, lhs, rhs, ok)``."""
    identity_id, params, lhs, rhs, *judged = check
    passed = judged[0] if judged else lhs == rhs
    shown = {k: _show(v) for k, v in params.items()}
    return ReportEntry(identity_id, shown, _show(lhs), _show(rhs), "pass" if passed else "fail")


def _brute_basis_upoly(k: int, n: int) -> UPoly:
    # independent oracle: multiply C(n,k) * u^k * (1-u)^(n-k) out directly
    return binomial_coeff(n, k) * UPoly.monomial(k) * UPoly((1, -1)) ** (n - k)


def _basis_row(n: int) -> list[UPoly]:
    return [qb.basis_upoly((k, n)) for k in range(n + 1)]


def _monomial_via_basis(j: int, row: list[UPoly]) -> UPoly:
    """sum_k monomial_in_basis(j, n)[k] B_{k,n} over ``row`` = B_{0,n}..B_{n,n};
    it must equal u**j."""
    weights = qb.monomial_in_basis(j, len(row) - 1)
    return sum((w * b for w, b in zip(weights, row)), UPoly.zero())


def _random_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]


def _pairs(degrees) -> str:
    return ";".join(f"({n},{m})" for n, m in degrees)


def _on_grid(identity_id, params, triples, tol, relative=False):
    """The float check at the grid point of largest |lhs - rhs|, from the
    ``(x, lhs, rhs)`` triples; ``x`` is added to ``params``."""
    x, lhs, rhs = max(triples, key=lambda t: abs(t[1] - t[2]))
    bound = tol * max(abs(lhs), abs(rhs)) if relative else tol
    return identity_id, {**params, "x": x}, float(lhs), float(rhs), abs(lhs - rhs) <= bound


def _bridge_rhs(m: int, n: int, u: Fraction) -> Fraction:
    """sum_k C(n,k) u**k k! S(m,k), the Stirling side of the operator bridge,
    built as sum_k C(n,k) s**k t**(n-k) k! S(m,k) over t**n for u = s/t."""
    s, t = u.numerator, u.denominator
    total = sum(
        math.comb(n, k) * s**k * t ** (n - k) * math.factorial(k) * stirling2(m, k)
        for k in range(n + 1)
    )
    return Fraction(total, t**n)


def _operators_agree(tag: str, vec, us):
    for u in us:
        direct = qb.operator_apply(vec, u, "direct")
        for method in ("monomial", "difference"):
            lhs = qb.operator_apply(vec, u, method)
            params = {"samples": tag, "u": u, "method": method}
            yield "bernstein.operator_methods_agree", params, lhs, direct


def _suite_bernstein(cfg: VerifyConfig):
    us = (Fraction(1, 3), Fraction(2, 5))
    one_minus_u = UPoly((1, -1))
    u_poly = UPoly((0, 1))
    # drawn in this order, from one generator, so the sample vectors never change
    rng = random.Random(_RNG_SEED)
    operator_vectors = [_random_vector(rng, rng.randint(1, cfg.nmax)) for _ in range(20)]
    decasteljau_vectors = [_random_vector(rng, rng.randint(1, 8)) for _ in range(5)]

    for n in range(cfg.nmax + 1):
        row = _basis_row(n)
        yield "bernstein.partition_of_unity", {"n": n}, sum(row, UPoly.zero()), UPoly.one()
        for k, b in enumerate(row):
            kn = {"k": k, "n": n}
            yield "bernstein.symmetry_u_reflection", kn, row[n - k].compose(one_minus_u), b
            elevated = (c * qb.basis_upoly(i) for c, i in qb.degree_elevate((k, n)))
            yield "bernstein.degree_elevation", kn, b, sum(elevated, UPoly.zero())
            yield "bernstein.monomial_expansion", kn, b, _brute_basis_upoly(k, n)
            via_basis = _monomial_via_basis(k, row)
            yield "bernstein.monomial_in_basis", {"j": k, "n": n}, via_basis, UPoly.monomial(k)
            if n:
                lower = one_minus_u * qb.basis_upoly((k, n - 1))
                lower += u_poly * qb.basis_upoly((k - 1, n - 1))
                yield "bernstein.degree_recurrence", kn, lower, b
            if k:
                ratio = Fraction(n - k + 1, k) * u_poly * row[k - 1]
                yield "bernstein.neighbor_ratio", kn, ratio, one_minus_u * b
        if not n:
            continue
        ones = [Fraction(1)] * (n + 1)
        linear = [Fraction(k, n) for k in range(n + 1)]
        for u in us:
            for method in qb.OPERATOR_METHODS:
                params = {"n": n, "u": u, "method": method}
                yield "bernstein.operator_constant", params, qb.operator_apply(ones, u, method), 1
                yield "bernstein.operator_linear", params, qb.operator_apply(linear, u, method), u
        for m in range(7):
            samples = qb.monomial_samples(m, n)
            yield from _operators_agree(f"t^{m},n={n}", samples, us)
            if n > 10:
                continue
            for u in us:
                lhs = n**m * qb.operator_apply(samples, u)
                rhs = _bridge_rhs(m, n, u)
                yield "bernstein.operator_stirling_bridge", {"m": m, "n": n, "u": u}, lhs, rhs
    for i, vec in enumerate(operator_vectors):
        yield from _operators_agree(f"random#{i},n={len(vec) - 1}", vec, us)

    for k in range(5):
        for u in us:
            got = qb.generating_coeffs(k, u, 10)
            want = [qb.basis_eval_exact((k, m), u) for m in range(11)]
            yield "bernstein.generating_series", {"k": k, "u": u}, got, want

    two_fifths = Fraction(2, 5)
    for n in range(7):
        for k in range(n + 1):
            got = qb.decasteljau_eval([Fraction(int(i == k)) for i in range(n + 1)], two_fifths)
            want = qb.basis_eval_exact((k, n), two_fifths)
            yield "bernstein.decasteljau_matches_direct", {"k": k, "n": n, "u": "2/5"}, got, want
    for i, vec in enumerate(decasteljau_vectors):
        n = len(vec) - 1
        for u in us:
            want = sum(c * qb.basis_eval_exact((k, n), u) for k, c in enumerate(vec))
            params = {"k": f"random#{i}", "n": n, "u": u}
            yield "bernstein.decasteljau_matches_direct", params, qb.decasteljau_eval(vec, u), want

    # floating checks, each reported at the grid point of its largest error
    inner = [i / 10 for i in range(1, 10)]
    grid = [i / 10 for i in range(11)]
    h = 1e-5
    q_near_one = 1.0 - 1e-6
    real, derivative = qb.basis_eval_real, qb.basis_derivative
    for n in range(7):
        for k in range(n + 1):
            kn, params = (k, n), {"k": k, "n": n}
            for q in (0.3, 0.7):
                fd = (
                    (x, derivative(kn, x, q), (real(kn, x + h, q) - real(kn, x - h, q)) / (2 * h))
                    for x in inner
                )
                yield _on_grid(
                    "bernstein.derivative_matches_fd", {**params, "q": q}, fd, 1e-6, relative=True
                )
            classical = (
                (x, real(kn, x, q_near_one), math.comb(n, k) * x**k * (1.0 - x) ** (n - k))
                for x in grid
            )
            yield _on_grid("bernstein.classical_limit_basis", params, classical, 1e-4)
            slopes = ((x, derivative(kn, x, q_near_one), derivative(kn, x, 1.0)) for x in inner)
            yield _on_grid("bernstein.classical_limit_derivative", params, slopes, 1e-4)
            for q in (0.3, 0.7, 1.5):
                mirror = ((x, real((n - k, n), 1.0 - x, 1.0 / q), real(kn, x, q)) for x in grid)
                yield _on_grid("bernstein.symmetry_float_grid", {**params, "q": q}, mirror, 1e-12)

    channel = real((2, 3), 0.001, 1.0) + real((3, 3), 0.001, 1.0)
    yield "bernstein.binary_channel_value", {}, channel, 2.998e-6, abs(channel - 2.998e-6) <= 1e-9


def _valuations_ok(vals: list) -> bool:
    """Each valuation is at least its level, and above the one before unless infinite."""
    rising = all(b > a or b == math.inf for a, b in zip(vals, vals[1:]))
    return rising and all(v >= level for level, v in enumerate(vals, start=1))


def _suite_euler(cfg: VerifyConfig):
    residuals = "recurrence residuals all zero"
    for q in cfg.qs:
        table = euler_table(q, 20)
        ok = table.check_recurrence()
        yield "euler.table_recurrence", {"q": q}, residuals if ok else "violated", residuals, ok
        for n in range(21):
            yield "euler.closed_matches_recurrence", {"n": n, "q": q}, euler_closed(n, q), table[n]
        for n in range(11):
            at_zero = euler_poly(n, 0, q)
            yield "euler.polynomial_at_zero", {"n": n, "q": q}, at_zero, euler_number(n, q)
            for x in range(-2, 4):
                params = {"n": n, "x": x, "q": q}
                yield "euler.reflection", params, *reflection_check(n, x, q)
                if n < 9:
                    closed = euler_poly_closed(n, x, q)
                    yield "euler.polynomial_closed_form", params, euler_poly(n, x, q), closed
        for shift in range(1, 5):
            for m in range(9):
                params = {"shift": shift, "m": m, "q": q}
                moment = shift_moment(shift, m, q)
                yield "euler.shift_functional", params, moment, shift_moment_sum(shift, m, q)
        for n in range(1, 13):
            reflected = 2 + euler_number(n, 1 / q)
            yield "euler.complement_reflected", {"n": n, "q": q}, complement_moment(n, q), reflected

    half = Fraction(1, 2)
    anchors = (
        (1, half, Fraction(-2, 3)),
        (4, half, Fraction(464, 765)),
        (4, Fraction(2), Fraction(-29, 765)),
    )
    for n, q, want in anchors:
        yield "euler.number_anchor", {"n": n, "q": q}, euler_number(n, q), want

    p, q4 = 3, Fraction(4)
    for n in range(5):
        vals = [
            padic_valuation(fermionic_sum(n, q4, p, level) - euler_number(n, q4), p)
            for level in range(1, 6)
        ]
        growth = "strictly increasing and >= level"
        params = {"n": n, "p": p, "q": q4}
        yield "euler.fermionic_valuation_growth", params, vals, growth, _valuations_ok(vals)
    for level, want in ((1, 4), (2, 17476)):
        got = fermionic_sum(1, q4, p, level)
        yield "euler.fermionic_anchor", {"n": 1, "level": level}, got, want


def _suite_integrals(cfg: VerifyConfig):
    pair_pool = [(n, m) for n in range(1, 4) for m in range(1, 3)]
    for q in cfg.qs:
        for n in range(11):
            direct = [qi.integral_basis(k, n, q) for k in range(n + 1)]
            yield "integrals.partition_integral", {"n": n, "q": q}, sum(direct), 1
            if n < 7:
                top = euler_number(n, q)
                yield "integrals.basis_top_reduces_to_euler", {"n": n, "q": q}, direct[n], top
            if n > cfg.nmax:
                continue
            for k in range(n):
                params = {"k": k, "n": n, "q": q}
                reflected = qi.integral_basis_reflected(k, n, q)
                yield "integrals.basis_direct_vs_reflected", params, direct[k], reflected
        for s in range(1, cfg.smax + 1):
            for ns in combinations_with_replacement(range(1, 6), s):
                for k in range(cfg.kmax + 1):
                    if sum(ns) <= s * k:
                        continue
                    yield (
                        "integrals.product_direct_vs_reflected",
                        {"k": k, "ns": ",".join(map(str, ns)), "q": q},
                        qi.integral_product(k, ns, q, "direct"),
                        qi.integral_product(k, ns, q, "reflected"),
                    )
        for s in range(1, min(cfg.smax, 2) + 1):
            for degrees in combinations_with_replacement(pair_pool, s):
                for k in range(cfg.kmax + 1):
                    inst = qi.IntegralInstance(k, degrees, q)
                    if inst.total_degree <= k * inst.multiplicity:
                        continue
                    yield (
                        "integrals.power_product_vs_direct",
                        {"k": k, "pairs": _pairs(degrees), "q": q},
                        qi.integral_power_product(inst),
                        qi.integral_power_product_direct(inst),
                    )
        # independent of smax: (1, 2) and (2, 3) are checked at smax = 1 too
        for ns in ((2,), (1, 2), (2, 3)):
            for k in range(cfg.kmax + 1):
                if sum(ns) <= len(ns) * k:
                    continue
                inst = qi.IntegralInstance(k, tuple((n, 1) for n in ns), q)
                yield (
                    "integrals.power_product_reduces_to_product",
                    {"k": k, "ns": ",".join(map(str, ns)), "q": q},
                    qi.integral_power_product(inst),
                    qi.integral_product(k, ns, q, "direct"),
                )

    half = Fraction(1, 2)
    for method in ("direct", "reflected"):
        params = {"k": 1, "ns": "2,2", "q": half, "method": method}
        moment = qi.integral_product(1, (2, 2), half, method)
        yield "integrals.product_anchor", params, moment, Fraction(-16, 255)
    routes = (("reflected", qi.integral_basis_reflected), ("direct", qi.integral_basis))
    for route, basis_moment in routes:
        params = {"k": 1, "n": 3, "q": half, "route": route}
        yield "integrals.basis_separating_anchor", params, basis_moment(1, 3, half), Fraction(2, 15)
    for k, degrees, want in ((1, ((2, 2),), Fraction(-16, 255)), (0, ((1, 2),), Fraction(31, 15))):
        params = {"k": k, "pairs": _pairs(degrees), "q": half}
        moment = qi.integral_power_product(qi.IntegralInstance(k, degrees, half))
        yield "integrals.power_product_anchor", params, moment, want

    p, q4 = 3, Fraction(4)
    for n in range(4):
        for k in range(n + 1):
            exact = qi.integral_basis(k, n, q4)
            for level in range(1, 5):
                v = padic_valuation(qi.fermionic_basis_sum(k, n, q4, p, level) - exact, p)
                params = {"k": k, "n": n, "level": level}
                yield "integrals.fermionic_oracle", params, v, f">= {level}", v >= level


def _suite_stirling(cfg: VerifyConfig):
    # built once: the bridge's basis side does not depend on q
    bridge = {(j, n): _monomial_via_basis(j, _basis_row(n)) for n in range(9) for j in range(n + 1)}
    for q in cfg.qs:
        for k in range(1, 13):
            for j in range(k + 1):
                pascal = gaussian_binomial(k - 1, j - 1, q) + q**j * gaussian_binomial(k - 1, j, q)
                params = {"k": k, "j": j, "q": q}
                yield "stirling.gaussian_q_pascal", params, gaussian_binomial(k, j, q), pascal
        expansions = [qst.qstirling_expansion_upoly(n, q) for n in range(9)]
        for n, expansion in enumerate(expansions):
            yield "stirling.monomial_expansion", {"n": n, "q": q}, expansion, UPoly.monomial(n)
        yield "stirling.anchor_3_2", {"q": q}, qst.q_stirling2(3, 2, q), 2 + q
        for (j, n), total in bridge.items():
            yield "stirling.basis_expansion_bridge", {"j": j, "n": n, "q": q}, total, expansions[j]

    for n in range(11):
        for k in range(n + 1):
            classical = stirling2(n, k)
            yield "stirling.classical_at_q1", {"n": n, "k": k}, qst.q_stirling2(n, k, 1), classical
    for m in range(1, 13):
        for k in range(1, m):
            recurrence = k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)
            yield "stirling.recurrence_classical", {"m": m, "k": k}, stirling2(m, k), recurrence


def _printed_counterexamples(suites):
    """The misprinted variants of the selected suites, each expected to fail."""
    half = Fraction(1, 2)
    if "bernstein" in suites:
        params = {"k": 1, "n": 4}
        printed = qb.basis_upoly_printed((1, 4))
        yield "bernstein.monomial_expansion_printed", params, printed, _brute_basis_upoly(1, 4)
    if "euler" in suites:
        complement, reflected = complement_moment(1, half), 2 + euler_number(1, half)
        yield "euler.complement_printed", {"n": 1, "q": "1/2"}, complement, reflected
    if "integrals" in suites:
        yield (
            "integrals.basis_reflected_printed",
            {"k": 1, "n": 3, "q": half},
            qi.integral_basis_reflected(1, 3, 1 / half),
            qi.integral_basis(1, 3, half),
        )
        yield (
            "integrals.product_reflected_printed",
            {"k": 1, "ns": "1,2", "q": half},
            qi.integral_product(1, (1, 2), 1 / half, "reflected"),
            qi.integral_product(1, (1, 2), half, "direct"),
        )
        yield (
            "integrals.product_k0_printed",
            {"ns": "1,1", "q": half},
            2 + euler_number(2, half),
            qi.integral_product(0, (1, 1), half, "direct"),
        )
        degrees = ((1, 1), (2, 1))
        yield (
            "integrals.power_product_printed",
            {"k": 1, "pairs": _pairs(degrees), "q": half},
            qi.integral_power_product(qi.IntegralInstance(1, degrees, 1 / half)),
            qi.integral_power_product_direct(qi.IntegralInstance(1, degrees, half)),
        )


_SUITE_FUNCS = {
    "bernstein": _suite_bernstein,
    "euler": _suite_euler,
    "integrals": _suite_integrals,
    "stirling": _suite_stirling,
}


def _run_queue(cfg: VerifyConfig, queue_fd: int) -> tuple[list, list]:
    """Take suites from the queue one at a time until it is empty, each a
    byte that indexes ``SUITES``; the entries of the suites taken, and their
    counterexamples."""
    entries, names = [], []
    while index := os.read(queue_fd, 1):
        name = SUITES[index[0]]
        names.append(name)
        entries += map(_entry, _SUITE_FUNCS[name](cfg))
    counterexamples = []
    if cfg.include_printed_counterexamples:
        counterexamples = [_entry(check) for check in _printed_counterexamples(names)]
    return entries, counterexamples


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` is missing, or
    while other threads run, whose locks a forked child would inherit in
    whatever state they hold."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(cfg: VerifyConfig, queue_fd: int) -> tuple[int, int]:
    """Take suites from the queue in a forked child.  Returns its pid and
    the read end of a pipe that carries the pickled ``(True, (entries,
    counterexamples))``, or ``(False, exception)`` if a suite raised."""
    import pickle  # here, not above: every `qb` command imports this module

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # The child always leaves through os._exit: the stdio buffers it
    # inherited are never flushed twice, and nothing unwinds into the
    # caller's frames.  Exit status 1 means that no result was written.
    status = 1
    try:
        os.close(read_fd)
        try:
            result = (True, _run_queue(cfg, queue_fd))
        except BaseException as exc:
            result = (False, exc)
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _read(read_fd: int) -> bytes:
    """Everything written to the pipe, once its child has closed it."""
    with os.fdopen(read_fd, "rb", closefd=False) as pipe:
        return pipe.read()


def _reap(pid: int, read_fd: int) -> int:
    """Close the pipe, kill the child if it still runs, and reap it; returns
    its wait status."""
    import signal

    os.close(read_fd)
    os.kill(pid, signal.SIGKILL)  # no effect on a child that has exited
    return os.waitpid(pid, 0)[1]


def _unpack(payload: bytes, status: int) -> tuple[list, list]:
    """A child's entries and counterexamples; raises what its suites raised."""
    import pickle

    if not payload:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"a verify worker ended without a result (exit code {code})")
    ok, result = pickle.loads(payload)
    if not ok:
        raise result
    return result


def run_verify_suite(config: VerifyConfig | None = None) -> IdentityReport:
    """Execute every registered check for the selected suites and return the
    sorted report.  Deterministic: identical configs produce identical
    reports (the operator sample vectors come from a fixed-seed generator).

    The selected suites wait in a queue: a pipe holding one byte per suite,
    whose write end is closed before any fork.  There is one worker per
    available CPU, at most one per suite: this process and forked children,
    which pipe their entries back.  Each worker takes the next suite when it
    has finished the last, until the queue is empty, so the suites spread
    by what they cost, and which worker runs a suite varies from run to
    run.  Every identity id begins with its suite's name and the report is
    sorted, so its bytes depend neither on that nor on the number of CPUs.
    """
    cfg = config if config is not None else VerifyConfig()
    selected = SUITES if cfg.suite == "all" else (cfg.suite,)
    queue_fd, write_fd = os.pipe()
    children = []
    try:
        try:
            os.write(write_fd, bytes(SUITES.index(name) for name in selected))
        finally:
            os.close(write_fd)  # an empty queue then reads as end of file
        for _ in range(min(_cpu_count(), len(selected)) - 1):
            children.append(_fork_worker(cfg, queue_fd))
        entries, counterexamples = _run_queue(cfg, queue_fd)
        payloads = [_read(read_fd) for _, read_fd in children]
    finally:
        # On success every child has closed its pipe; after an exception
        # the children are killed unread.
        os.close(queue_fd)
        statuses = [_reap(*child) for child in children]
    for child_entries, child_counterexamples in map(_unpack, payloads, statuses):
        entries += child_entries
        counterexamples += child_counterexamples
    return IdentityReport(entries=entries, counterexamples=counterexamples)
