import json
import math
import os
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, strategies as st

from qbernstein import bernstein, verify
from qbernstein.cli import _build_parser, main
from qbernstein.integrals import integral_direct, integral_reflected
from qbernstein.kernel import DomainError, binomial_coeff
from qbernstein.verify import (
    DEFAULT_QS,
    SUITES,
    IdentityReport,
    ReportEntry,
    VerifyConfig,
    run_verify_suite,
)
from test_report_golden import GOLDEN

FAST = VerifyConfig(suite="all", qs=(Fraction(1, 2), Fraction(5, 4)), nmax=6, smax=2, kmax=1)


def test_fast_run_is_clean():
    report = run_verify_suite(FAST)
    assert report.ok
    assert report.failures == []
    assert report.counterexamples == []
    assert report.summary["checks"] > 500


def test_counterexamples_fail_as_expected():
    cfg = VerifyConfig(
        suite="all",
        qs=(Fraction(1, 2), Fraction(5, 4)),
        nmax=6,
        smax=2,
        kmax=1,
        include_printed_counterexamples=True,
    )
    report = run_verify_suite(cfg)
    assert report.ok
    assert all(e.verdict == "fail" for e in report.counterexamples)
    assert [e.identity_id for e in report.counterexamples] == [
        "bernstein.monomial_expansion_printed",
        "euler.complement_printed",
        "integrals.product_k0_printed",
        "integrals.reflected_printed",
        "integrals.reflected_printed",
        "integrals.reflected_printed",
    ]
    # each printed moment is its own instance: no two make the same two calls
    instances = [
        (e.params.get("k", "0"), e.params.get("pairs") or _pairs_of(e.params["ns"]), e.params["q"])
        for e in report.counterexamples
        if e.identity_id.startswith("integrals.")
    ]
    assert len(set(instances)) == len(instances) == 4


def _pairs_of(ns: str) -> str:
    return ";".join(f"({n},1)" for n in ns.split(","))


def test_printed_basis_expansion_is_the_documented_instance():
    # the printed coefficients (-1)**(l-k) C(l,k) C(n,k) at k = 1, n = 4
    entry = verify._entry(next(verify._printed_counterexamples({"bernstein"})))
    assert entry.identity_id == "bernstein.monomial_expansion_printed"
    assert entry.params == {"k": "1", "n": "4"}
    assert entry.lhs == "[0, 4, -8, 12, -16]"
    assert entry.rhs == "[0, 4, -12, 12, -4]"
    assert entry.verdict == "fail"


def test_entries_are_sorted():
    report = run_verify_suite(VerifyConfig(suite="stirling", qs=(Fraction(1, 2),)))
    keys = [e.sort_key for e in report.entries]
    assert keys == sorted(keys)


def test_runs_are_deterministic():
    a = run_verify_suite(FAST).to_dict()
    b = run_verify_suite(FAST).to_dict()
    assert a == b


_SELECTION = {"qs": (Fraction(1, 2),), "nmax": 6, "smax": 2, "kmax": 1}


@pytest.fixture(scope="module")
def full_report():
    return run_verify_suite(
        VerifyConfig(suite="all", include_printed_counterexamples=True, **_SELECTION)
    )


@pytest.mark.parametrize("suite", SUITES)
def test_single_suite_selection(suite, full_report):
    # a suite run holds exactly its own share of the full run, counterexamples included
    report = run_verify_suite(
        VerifyConfig(suite=suite, include_printed_counterexamples=True, **_SELECTION)
    )
    assert report.ok
    assert report.entries

    def own(entries):
        return [e for e in entries if e.identity_id.startswith(f"{suite}.")]

    assert report.entries == own(full_report.entries)
    assert report.counterexamples == own(full_report.counterexamples)


# -- one entry per statement, none that other entries decide ------------------


def _golden_config(argv) -> VerifyConfig:
    args = _build_parser().parse_args(["verify", *argv])
    return VerifyConfig(**{k: v for k, v in vars(args).items() if k in VerifyConfig.__slots__})


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_run(request):
    cfg = _golden_config(GOLDEN[request.param][0])
    return cfg, run_verify_suite(cfg)


def _loop_instances(cfg: VerifyConfig):
    """The (k, pairs, q) that the moment loops reach, in their order, repeats
    kept: the basis members, the products, the power products and the three
    products that once reduced the power products to products."""
    pool = [(n, m) for n in range(1, 4) for m in range(1, 3)]
    for q in cfg.qs:
        for n in range(min(cfg.nmax, 10) + 1):
            yield from ((k, ((n, 1),), q) for k in range(n))
        for s in range(1, cfg.smax + 1):
            for ns in combinations_with_replacement(range(1, 6), s):
                pairs = tuple((n, 1) for n in ns)
                yield from ((k, pairs, q) for k in range(cfg.kmax + 1) if sum(ns) > s * k)
        for s in range(1, min(cfg.smax, 2) + 1):
            for pairs in combinations_with_replacement(pool, s):
                total, mult = sum(n * m for n, m in pairs), sum(m for _, m in pairs)
                yield from ((k, pairs, q) for k in range(cfg.kmax + 1) if total > k * mult)
        for ns in ((2,), (1, 2), (2, 3)):
            pairs = tuple((n, 1) for n in ns)
            yield from ((k, pairs, q) for k in range(cfg.kmax + 1) if sum(ns) > len(ns) * k)


def _moment_pair(k: int, pairs) -> tuple[int, int]:
    kM = k * sum(m for _, m in pairs)
    return kM, sum(n * m for n, m in pairs) - kM


def _coefficient(k: int, pairs) -> int:
    return math.prod(binomial_coeff(n, k) ** m for n, m in pairs)


def _representatives(cfg: VerifyConfig) -> dict:
    """(kM, T - kM, q) -> the first (k, pairs) in the loops' order that
    reaches it with a nonzero coefficient."""
    reps = {}
    for k, pairs, q in _loop_instances(cfg):
        if _coefficient(k, pairs):
            reps.setdefault((*_moment_pair(k, pairs), q), (k, pairs))
    return reps


def _parsed_pairs(shown: str) -> tuple:
    return tuple(tuple(map(int, pair.strip("()").split(","))) for pair in shown.split(";"))


def test_every_moment_pair_is_checked_once(golden_run):
    cfg, report = golden_run
    family = [e for e in report.entries if e.identity_id == "integrals.direct_vs_reflected"]
    if cfg.suite not in ("all", "integrals"):
        assert not family
        return
    qs = {verify._show(q): q for q in cfg.qs}
    checked = Counter()
    reps = _representatives(cfg)
    for e in family:
        k, pairs, q = int(e.params["k"]), _parsed_pairs(e.params["pairs"]), qs[e.params["q"]]
        assert _coefficient(k, pairs) != 0
        key = (*_moment_pair(k, pairs), q)
        assert reps[key] == (k, pairs)
        checked[key] += 1
    assert set(checked.values()) == {1}
    reached = {(*_moment_pair(k, pairs), q) for k, pairs, q in _loop_instances(cfg)}
    assert set(checked) == set(reps) == reached


def test_dropped_entries_are_decided_by_others(golden_run):
    cfg, report = golden_run
    entries = {(e.identity_id, tuple(sorted(e.params.items()))): e for e in report.entries}

    def entry(identity_id, **params):
        return entries[identity_id, tuple(sorted(params.items()))]

    assert all(e.verdict == "pass" for e in report.entries)
    ids = {e.identity_id for e in report.entries}
    if "bernstein.operator_constant" in ids:
        # operator_methods_agree at t^0 and t^1 compared each method with the
        # direct one on these samples; every method gives 1 and u on them here
        for n in range(1, cfg.nmax + 1):
            assert bernstein.monomial_samples(0, n) == [1] * (n + 1)
            assert bernstein.monomial_samples(1, n) == [Fraction(k, n) for k in range(n + 1)]
            for u in ("1/3", "2/5"):
                for method in bernstein.OPERATOR_METHODS:
                    assert entry("bernstein.operator_constant", n=str(n), u=u, method=method).rhs == "1"
                    assert entry("bernstein.operator_linear", n=str(n), u=u, method=method).rhs == u
        agree = [e for e in report.entries if e.identity_id == "bernstein.operator_methods_agree"]
        assert not [e for e in agree if e.params["samples"].startswith(("t^0,", "t^1,"))]
        # operator_stirling_bridge at m = 0 and m = 1 stated n**m A(t^m)(u) =
        # sum_k C(n,k) u**k k! S(m,k), which reads A(1) = 1 and n A(t) = n u:
        # the direct entries of operator_constant and operator_linear
        bridge = [e for e in report.entries if e.identity_id == "bernstein.operator_stirling_bridge"]
        assert not [e for e in bridge if int(e.params["m"]) < 2]
        for n in range(1, min(cfg.nmax, 10) + 1):
            for u in (Fraction(1, 3), Fraction(2, 5)):
                shown = verify._show(u)
                assert entry("bernstein.operator_constant", n=str(n), u=shown, method="direct").rhs == "1"
                assert entry("bernstein.operator_linear", n=str(n), u=shown, method="direct").rhs == shown
                for m in (0, 1):
                    lhs = n**m * bernstein.operator_apply(bernstein.monomial_samples(m, n), u)
                    assert lhs == verify._bridge_rhs(m, n, u) == (1 if m == 0 else n * u)
    if "euler.polynomial_at_zero" in ids:
        # polynomial_closed_form at x = 0 compared euler_poly(n, 0, q), the lhs
        # of polynomial_at_zero, with euler_poly_closed(n, 0, q) = euler_closed(n, q),
        # the lhs of closed_matches_recurrence; both rhs are E_{n,q}
        for q in map(verify._show, cfg.qs):
            for n in map(str, range(9)):
                at_zero = entry("euler.polynomial_at_zero", n=n, q=q)
                assert at_zero.rhs == entry("euler.closed_matches_recurrence", n=n, q=q).rhs
        closed = [e for e in report.entries if e.identity_id == "euler.polynomial_closed_form"]
        assert not [e for e in closed if e.params["x"] == "0"]
    if "integrals.direct_vs_reflected" in ids:
        # both routes scale one moment sum by prod_i C(n_i,k)**m_i (at kM = 0 they
        # make the same calls), so an instance is its representative's values times
        # the coefficients' ratio, and 0 on both routes where its coefficient is 0
        reps = _representatives(cfg)
        for k, pairs, q in set(_loop_instances(cfg)):
            key = (*_moment_pair(k, pairs), q)
            direct, reflected = integral_direct(k, pairs, q), integral_reflected(k, pairs, q)
            coeff = _coefficient(k, pairs)
            if not coeff:
                assert direct == reflected == 0
                continue
            rep_k, rep_pairs = reps[key]
            rep = entry(
                "integrals.direct_vs_reflected",
                k=str(rep_k),
                pairs=verify._pairs(rep_pairs),
                q=verify._show(q),
            )
            ratio = Fraction(coeff, _coefficient(rep_k, rep_pairs))
            assert direct == ratio * Fraction(rep.lhs)
            assert reflected == ratio * Fraction(rep.rhs)
    # stirling.basis_expansion_bridge stated sum_k c_k B_{k,n} = expansions[j] for
    # j <= n <= 8; as monomial_expansion checks expansions[j] == u**j at every q,
    # that is bernstein.monomial_in_basis {j, n}, which the bernstein suite owns
    assert "stirling.basis_expansion_bridge" not in ids
    if "bernstein.monomial_in_basis" in ids:
        for n in range(min(cfg.nmax, 8) + 1):
            for j in range(n + 1):
                assert entry("bernstein.monomial_in_basis", j=str(j), n=str(n)).verdict == "pass"


def test_stirling_suite_needs_no_bernstein_basis(monkeypatch):
    # the bernstein suite owns every statement about the basis
    def refuse(*args):
        raise AssertionError("the stirling suite built a Bernstein basis member")

    monkeypatch.setattr(verify.qb, "basis_upoly", refuse)
    monkeypatch.setattr(verify.qb, "monomial_in_basis", refuse)
    entries = [verify._entry(check) for check in verify._suite_stirling(VerifyConfig())]
    assert entries and all(e.verdict == "pass" for e in entries)
    assert {e.identity_id.split(".")[0] for e in entries} == {"stirling"}


def test_report_does_not_depend_on_the_order_of_q(tmp_path, capsys):
    reports = []
    for qs in (["--q", "1/2", "--q", "2/3", "--q=-7/3"], ["--q=-7/3", "--q", "2/3", "--q", "1/2"]):
        out = tmp_path / "report.json"
        assert main(["verify", *qs, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_each_moment_is_computed_once_per_sample_q(monkeypatch):
    # partition_integral and direct_vs_reflected read one table of moments
    # per q; the anchors run at q = 1/2 alone
    calls = Counter()
    direct = verify.qi.integral_direct

    def counted(k, pairs, q):
        calls[k, pairs, q] += 1
        return direct(k, pairs, q)

    monkeypatch.setattr(verify.qi, "integral_direct", counted)
    cfg = VerifyConfig(suite="integrals", qs=(Fraction(2, 3), Fraction(-3)))
    assert len(list(verify._suite_integrals(cfg))) > 100
    basis = {(k, ((n, 1),)) for n in range(11) for k in range(n + 1)}
    moments = basis.union(verify._moment_instances(cfg))
    assert {key for key in calls if key[2] in cfg.qs} == {(*m, q) for m in moments for q in cfg.qs}
    assert {calls[key] for key in calls if key[2] in cfg.qs} == {1}


def test_config_validation():
    with pytest.raises(DomainError):
        VerifyConfig(qs=())
    assert VerifyConfig(nmax=32).nmax == 32
    assert VerifyConfig(nmax=1).nmax == 1
    with pytest.raises(DomainError):
        VerifyConfig(nmax=33)
    with pytest.raises(DomainError):
        VerifyConfig(nmax=0)  # the operator sample draws need n >= 1
    with pytest.raises(DomainError):
        VerifyConfig(smax=0)
    with pytest.raises(DomainError):
        VerifyConfig(smax=4)
    with pytest.raises(DomainError):
        VerifyConfig(kmax=-1)
    assert VerifyConfig(kmax=4).kmax == 4
    with pytest.raises(DomainError):
        VerifyConfig(kmax=5)
    with pytest.raises(DomainError):
        VerifyConfig(suite="algebra")
    with pytest.raises(DomainError, match="q = 1/2 is repeated"):
        VerifyConfig(qs=(Fraction(1, 2), Fraction(3), Fraction(2, 4)))
    assert len(VerifyConfig(qs=(Fraction(1, 2), Fraction(-1, 2))).qs) == 2
    # the q set is stored as validated: exact inputs become Fractions, and a
    # float is refused before any suite runs
    qs = VerifyConfig(qs=(3, "1/2")).qs
    assert qs == (Fraction(3), Fraction(1, 2)) and all(type(q) is Fraction for q in qs)
    with pytest.raises(TypeError, match="not an exact rational"):
        VerifyConfig(qs=(Fraction(1, 2), 0.5))
    for bounds in ({"nmax": 2.5}, {"smax": 2.0}, {"kmax": "1"}):
        with pytest.raises(DomainError, match="the bounds must be integers"):
            VerifyConfig(**bounds)
    cfg = {"suite": "euler", "nmax": 4, "smax": 1, "kmax": 0}
    by_int = run_verify_suite(VerifyConfig(qs=(3,), **cfg))
    assert by_int.ok
    assert by_int.to_json() == run_verify_suite(VerifyConfig(qs=(Fraction(3),), **cfg)).to_json()


@pytest.mark.parametrize("q", [0, 1, -1, Fraction(0), Fraction(1), Fraction(-1), "0/3", "2/2", "-4/4"])
@pytest.mark.parametrize("suite", ["all", *SUITES])
def test_poles_refused_at_construction(q, suite, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in SUITES:
        monkeypatch.setitem(verify._SUITE_FUNCS, name, refuse)
    monkeypatch.setattr(os, "fork", refuse)
    with pytest.raises(DomainError, match=r"^q = -?[01] is a pole"):
        run_verify_suite(VerifyConfig(suite=suite, qs=(Fraction(1, 2), q)))


def test_default_q_set():
    assert DEFAULT_QS == (
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 5),
        Fraction(5, 4),
        Fraction(3),
    )


def test_report_dict_shape():
    report = run_verify_suite(VerifyConfig(suite="euler", qs=(Fraction(1, 2),)))
    d = report.to_dict()
    assert set(d) == {"summary", "entries", "counterexamples"}
    entry = d["entries"][0]
    assert set(entry) == {"identity_id", "params", "lhs", "rhs", "verdict"}
    assert entry["verdict"] in ("pass", "fail")


# Quotes, backslashes, control characters, a lone surrogate and non-ASCII
# text: everything the ensure_ascii escapes handle, beside plain text.
_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800é€😀')),
    max_size=12,
)
_entry = st.builds(
    ReportEntry,
    identity_id=_text,
    params=st.dictionaries(_text, _text, max_size=3),
    lhs=_text,
    rhs=_text,
    verdict=st.one_of(st.sampled_from(("pass", "fail")), _text),
)
_entries = st.lists(_entry, max_size=4)


def _dumped(report: IdentityReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


@example([], [])
@example([ReportEntry("a.b", {}, "1", "1", "pass")], [])
@example([], [ReportEntry("a.b", {"n": "2", "q": "1/2"}, "[1/2, 0, 3]", "x", "fail")])
@given(_entries, _entries)
def test_writer_bytes_match_json_dumps(entries, counterexamples):
    report = IdentityReport(entries=entries, counterexamples=counterexamples)
    assert report.to_json() == _dumped(report)


def test_writer_bytes_on_the_full_default_report():
    report = run_verify_suite(VerifyConfig(include_printed_counterexamples=True))
    assert report.counterexamples
    assert report.to_json() == _dumped(report)


# -- suites in forked workers --------------------------------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(exc):
    def action(name):
        raise exc

    return action


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_stubbed_suites_merge_into_one_report(workers, stub_suites):
    stub_suites(workers)
    report = run_verify_suite(VerifyConfig())
    assert [e.identity_id for e in report.entries] == [f"{name}.stub" for name in SUITES]
    pids = {e.params["pid"] for e in report.entries}
    if workers == 1:
        assert pids == {str(os.getpid())}
    else:
        assert str(os.getpid()) in pids and 2 <= len(pids) <= workers
    _assert_no_child_left()


@pytest.mark.parametrize("exc_type", [DomainError, RuntimeError])
def test_child_exception_is_raised_again_in_the_parent(exc_type, stub_suites):
    stub_suites(2, in_child=_raise(exc_type("a child went wrong")))
    with pytest.raises(exc_type) as info:
        run_verify_suite(VerifyConfig())
    assert type(info.value) is exc_type
    assert str(info.value) == "a child went wrong"
    _assert_no_child_left()


def test_child_that_dies_without_a_result_is_reported(stub_suites):
    stub_suites(2, in_child=lambda name: os._exit(7))
    with pytest.raises(RuntimeError, match=r"a verify worker ended without a result \(exit code 7\)"):
        run_verify_suite(VerifyConfig())
    _assert_no_child_left()


def test_children_are_killed_when_the_parent_raises(stub_suites):
    never_r, never_w = os.pipe()  # never written: a child reading it blocks until killed
    try:
        stub_suites(
            4,
            in_parent=_raise(RuntimeError("parent failed")),
            in_child=lambda name: os.read(never_r, 1),
        )
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            run_verify_suite(VerifyConfig())
        assert time.monotonic() - start < 30  # killed, not waited for
    finally:
        os.close(never_r)
        os.close(never_w)
    _assert_no_child_left()


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


_FAILURES = {
    "none": {},
    "parent raises": {"in_parent": _raise(RuntimeError("parent failed"))},
    "child raises": {"in_child": _raise(DomainError("child failed"))},
    "child dies": {"in_child": lambda name: os._exit(7)},
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("failure", sorted(_FAILURES))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_no_pipe_is_left_open(failure, workers, stub_suites):
    stub_suites(workers, **_FAILURES[failure])
    before = _open_fds()
    if failure == "none" or workers == 1 and "in_child" in _FAILURES[failure]:
        assert run_verify_suite(VerifyConfig()).ok
    else:
        with pytest.raises((RuntimeError, DomainError)):
            run_verify_suite(VerifyConfig())
    assert _open_fds() == before
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_printed_counterexamples_are_built_once_in_this_process(workers, stub_suites, tmp_path, monkeypatch):
    stub_suites(workers)
    calls = tmp_path / "calls"
    build = verify._printed_counterexamples

    def recorded(suites):
        with open(calls, "a") as f:  # a forked worker's call would show up here too
            f.write(f"{os.getpid()}\n")
        return build(suites)

    monkeypatch.setattr(verify, "_printed_counterexamples", recorded)
    report = run_verify_suite(VerifyConfig(include_printed_counterexamples=True))
    assert calls.read_text() == f"{os.getpid()}\n"
    assert report.ok and report.summary["counterexamples_failed_as_expected"] == 6
    assert (len({e.params["pid"] for e in report.entries}) > 1) == (workers > 1)  # children ran suites
    _assert_no_child_left()


def test_default_run_leaves_no_child(monkeypatch):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 4)
    assert run_verify_suite(FAST).ok
    _assert_no_child_left()


def test_cpu_count_is_one_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert verify._cpu_count() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert verify._cpu_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("suite", SUITES)
def test_single_suite_run_never_forks(suite, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(verify, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = VerifyConfig(suite=suite, qs=(Fraction(1, 2),), nmax=3, smax=1, kmax=1)
    assert run_verify_suite(cfg).ok
