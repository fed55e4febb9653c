from fractions import Fraction

import pytest

from qbernstein.kernel import DomainError
from qbernstein.verify import DEFAULT_QS, VerifyConfig, run_verify_suite

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


def test_single_suite_selection():
    report = run_verify_suite(VerifyConfig(suite="euler", qs=(Fraction(1, 2),)))
    assert report.ok
    assert all(e.identity_id.startswith("euler.") for e in report.entries)


def test_config_validation():
    with pytest.raises(DomainError):
        VerifyConfig(qs=())
    assert VerifyConfig(nmax=32).nmax == 32
    with pytest.raises(DomainError):
        VerifyConfig(nmax=33)
    with pytest.raises(DomainError):
        VerifyConfig(smax=0)
    with pytest.raises(DomainError):
        VerifyConfig(smax=4)
    with pytest.raises(DomainError):
        VerifyConfig(kmax=-1)
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
