"""Tests of the benchmark harness itself; none runs a heavy workload.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import itertools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_a_seed_always_generates_the_same_inputs(seed):
    for workload in ("verify-default", "verify-raised"):
        assert inputs.verify_argv(workload, seed, "r.json") == inputs.verify_argv(workload, seed, "r.json")
    first = list(itertools.islice(inputs.kernel_jobs(seed), 70))
    again = list(itertools.islice(inputs.kernel_jobs(seed), 70))
    assert first == again


def test_seeds_differ_and_stay_in_the_q_class():
    assert len(inputs.Q_CLASS) == 62
    defaults = {Fraction(q) for q in inputs.DEFAULT_QS}
    seen = set()
    for seed in range(20):
        qs = inputs.raised_qs(seed)
        assert len(set(qs)) == inputs.RAISED_EXTRA_QS
        assert set(qs) <= set(inputs.Q_CLASS) - defaults
        seen.add(tuple(qs))
    assert len(seen) == 20
    # verify-default takes no seeded input at all.
    assert inputs.verify_argv("verify-default", 3, "r.json") == inputs.verify_argv("verify-default", 4, "r.json")
    jobs = list(itertools.islice(inputs.kernel_jobs(0), len(inputs.Q_CLASS)))
    assert {Fraction(job["euler"]["q"]) for job in jobs} == set(inputs.Q_CLASS)
    assert jobs != list(itertools.islice(inputs.kernel_jobs(1), len(inputs.Q_CLASS)))


def test_raised_argv_carries_the_bounds_and_ten_q_values():
    argv = inputs.verify_argv("verify-raised", 7, "r.json")
    qs = [argv[i + 1] for i, a in enumerate(argv) if a == "--q"]
    assert qs[:5] == list(inputs.DEFAULT_QS)
    assert len(set(qs)) == 10
    assert argv[argv.index("--nmax") + 1] == "16"
    assert argv[-2:] == ["--out", "r.json"]


@pytest.mark.parametrize(
    "n, rank, beyond",
    [
        (100, 90, 10),  # p90, exactly ten beyond
        (40, 30, 10),
        (25, 15, 10),  # p60
        (20, 10, 10),  # p50: the rule reaches the median here
        (19, 10, 9),  # fewer than 20: upper median, short count reported
        (14, 8, 6),
        (1, 1, 0),
    ],
)
def test_tail_percentile_rule(n, rank, beyond):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, percentile, got_beyond = run.tail(values)
    assert value == float(rank)
    assert got_beyond == beyond
    assert percentile == pytest.approx(100.0 * rank / n)
    assert sum(v > value for v in values) == beyond


def _report(**summary):
    base = {
        "checks": 10,
        "failed": 0,
        "counterexamples": 6,
        "counterexamples_failed_as_expected": 6,
        "counterexamples_unexpectedly_passing": 0,
    }
    return json.dumps({"summary": {**base, **summary}}).encode()


def test_verify_failure_rules():
    good = _report()
    assert run.verify_failure(0, "result: PASS\n", good, None) is None
    assert run.verify_failure(0, "result: PASS\n", good, good) is None
    assert "exit code" in run.verify_failure(1, "result: PASS\n", good, None)
    assert "PASS" in run.verify_failure(0, "result: FAIL\n", good, None)
    assert "failed checks" in run.verify_failure(0, "result: PASS\n", _report(failed=1), None)
    unexpected = _report(counterexamples_unexpectedly_passing=1)
    assert "unexpectedly" in run.verify_failure(0, "result: PASS\n", unexpected, None)
    assert "differ" in run.verify_failure(0, "result: PASS\n", good, _report(checks=11))
    assert "no report" in run.verify_failure(0, "result: PASS\n", None, None)


def test_an_op_with_an_invalid_q_is_counted_as_failed(tmp_path):
    (tmp_path / "src").symlink_to(REPO / "src")
    bench = run.Run(tmp_path, "verify-default", 0, time.monotonic() + 60)
    bench.argv = ["verify", "--suite", "euler", "--q", "1", "--out", "report.json"]
    op = bench.op(traced=False)
    assert op.failed
    assert "exit code 3" in op.failure
    assert run.outcome(bench.ops) == {"correct": False, "attempted": 1, "failed": 1}
    metrics, notes = run.end_to_end(bench.ops, 1.0)
    assert metrics["ops_per_s"] == 0
    assert notes["fail_ratio"].startswith("1 ratio (1/1")
