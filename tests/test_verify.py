import json
import os
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qbernstein import verify
from qbernstein.kernel import DomainError
from qbernstein.verify import (
    DEFAULT_QS,
    SUITES,
    IdentityReport,
    ReportEntry,
    VerifyConfig,
    run_verify_suite,
)

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
    assert len(report.counterexamples) == 6
    assert all(e.verdict == "fail" for e in report.counterexamples)
    ids = {e.identity_id for e in report.counterexamples}
    assert "bernstein.monomial_expansion_printed" in ids
    assert "euler.complement_printed" in ids
    assert "integrals.basis_reflected_printed" in ids


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
