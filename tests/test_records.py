"""The package's records (``kernel.Record`` and ``kernel.FrozenRecord``) and
what a fresh ``import qbernstein.cli`` loads."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from qbernstein.euler import EulerTable, euler_table
from qbernstein.verify import DEFAULT_QS, IdentityReport, ReportEntry, VerifyConfig

HALF = Fraction(1, 2)


def _entry(identity_id="a.b", n="1", verdict="pass"):
    return ReportEntry(identity_id, {"n": n}, "1", "1", verdict)


# one record of each class, and an equal one built by other means
FROZEN = [
    (
        VerifyConfig("euler", (HALF,), 4, 2, 1, True),
        VerifyConfig(
            suite="euler", qs=(HALF,), nmax=4, smax=2, kmax=1, include_printed_counterexamples=True
        ),
    ),
    (euler_table(HALF, 2), EulerTable(HALF, (Fraction(1), Fraction(-2, 3), Fraction(-4, 15)))),
]
MUTABLE = [
    (_entry(), ReportEntry(identity_id="a.b", params={"n": "1"}, lhs="1", rhs="1", verdict="pass")),
    (IdentityReport([_entry()]), IdentityReport(entries=[_entry()], counterexamples=[])),
]


def test_import_of_the_cli_loads_no_dataclasses_or_csv():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qbernstein.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "qbernstein.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "pickle", "signal"}


def test_verify_config_defaults():
    cfg = VerifyConfig()
    assert (cfg.suite, cfg.qs, cfg.nmax, cfg.smax, cfg.kmax) == ("all", DEFAULT_QS, 12, 3, 2)
    assert cfg.include_printed_counterexamples is False
    assert VerifyConfig() == VerifyConfig("all", DEFAULT_QS, 12, 3, 2, False)


def test_identity_report_defaults_are_fresh_lists():
    a, b = IdentityReport(), IdentityReport()
    assert a.entries == a.counterexamples == []
    a.entries.append(_entry())
    assert b.entries == []


def test_identity_report_sorts_the_given_lists_in_place():
    entries = [_entry("b"), _entry("a", "2"), _entry("a", "1")]
    report = IdentityReport(entries)
    assert report.entries is entries
    assert [(e.identity_id, e.params["n"]) for e in entries] == [("a", "1"), ("a", "2"), ("b", "1")]


@pytest.mark.parametrize("record, twin", FROZEN + MUTABLE)
def test_equality_is_field_wise(record, twin):
    assert record == twin and not record != twin
    assert record != object()
    assert (record == 1) is False


@pytest.mark.parametrize(
    "record, other",
    [
        (VerifyConfig(), VerifyConfig(nmax=13)),
        (euler_table(HALF, 2), euler_table(HALF, 3)),
        (_entry(), _entry(verdict="fail")),
        (IdentityReport([_entry()]), IdentityReport([_entry()], [_entry()])),
    ],
)
def test_records_that_differ_in_a_field_are_unequal(record, other):
    assert record != other


@pytest.mark.parametrize("record, twin", FROZEN)
def test_frozen_records_hash_by_value_and_refuse_assignment(record, twin):
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


@pytest.mark.parametrize("record, twin", MUTABLE)
def test_mutable_records_are_unhashable_and_assignable(record, twin):
    with pytest.raises(TypeError):
        hash(record)
    name = type(record).__slots__[0]
    setattr(record, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "record, text",
    [
        (
            VerifyConfig(suite="euler", qs=(HALF,)),
            "VerifyConfig(suite='euler', qs=(Fraction(1, 2),), nmax=12, smax=3, kmax=2, "
            "include_printed_counterexamples=False)",
        ),
        (
            _entry(),
            "ReportEntry(identity_id='a.b', params={'n': '1'}, lhs='1', rhs='1', verdict='pass')",
        ),
        (
            IdentityReport([_entry()]),
            "IdentityReport(entries=[ReportEntry(identity_id='a.b', params={'n': '1'}, lhs='1', "
            "rhs='1', verdict='pass')], counterexamples=[])",
        ),
        (
            euler_table(HALF, 2),
            "EulerTable(q=Fraction(1, 2), values=(Fraction(1, 1), Fraction(-2, 3), "
            "Fraction(-4, 15)))",
        ),
    ],
)
def test_repr_names_the_fields(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, twin", FROZEN + MUTABLE)
def test_records_survive_pickle_and_copy(record, twin):
    assert pickle.loads(pickle.dumps(record)) == twin
    assert copy.copy(record) == twin
    assert copy.deepcopy(record) == twin
