import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
