import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qbernstein.cli
import qbernstein.tables
from qbernstein.cli import (
    BERNSTEIN_NMAX_LIMIT,
    EULER_NMAX_LIMIT,
    OPERATOR_NMAX_LIMIT,
    OPERATOR_WORK_LIMIT,
    main,
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qbernstein.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestEulerCommand:
    def test_csv_frozen(self):
        proc = run_cli("euler", "--q", "1/2", "--nmax", "2", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == "n,E\n0,1\n1,-2/3\n2,-4/15\n"

    def test_json(self):
        proc = run_cli("euler", "--q", "1/2", "--nmax", "1", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == [{"n": 0, "E": "1"}, {"n": 1, "E": "-2/3"}]

    def test_pole_is_domain_error(self):
        proc = run_cli("euler", "--q", "-1", "--nmax", "3")
        assert proc.returncode == 3
        assert "domain error" in proc.stderr

    def test_malformed_q_is_usage_error(self):
        proc = run_cli("euler", "--q", "0.5", "--nmax", "3")
        assert proc.returncode == 2

    def test_deep_table_prints_in_full(self):
        # E_150 at q = 5/7 runs past the interpreter's 4300-digit int-to-str limit
        proc = run_cli("euler", "--q", "5/7", "--nmax", "150")
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 152
        assert max(len(line) for line in lines) > 4300

    def test_nmax_guard_trips_before_any_work(self, monkeypatch, capsys):
        def no_table(q, nmax):
            raise AssertionError("the E-table was built")

        monkeypatch.setattr(qbernstein.tables, "euler_table", no_table)
        assert main(["euler", "--q", "1/2", "--nmax", str(EULER_NMAX_LIMIT + 1)]) == 2
        assert "work limit" in capsys.readouterr().err

    def test_nmax_guard_counts_the_bits_of_q(self, monkeypatch, capsys):
        def no_table(q, nmax):
            raise AssertionError("the E-table was built")

        monkeypatch.setattr(qbernstein.tables, "euler_table", no_table)
        # 61 * 20 bits exceeds EULER_WORK_LIMIT although 61 <= EULER_NMAX_LIMIT
        assert main(["euler", "--q", "1000003/1000000", "--nmax", "61"]) == 2
        assert "work limit" in capsys.readouterr().err
        monkeypatch.undo()
        assert main(["euler", "--q", "1000003/1000000", "--nmax", "60"]) == 0

    def test_huge_literal_keeps_the_digit_limit(self):
        proc = run_cli("euler", "--q", "7" * 5000, "--nmax", "1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_digit_limit_restored_after_main(self, capsys):
        before = sys.get_int_max_str_digits()
        assert main(["euler", "--q", "1/2", "--nmax", "2"]) == 0
        assert sys.get_int_max_str_digits() == before


class TestBernsteinCommand:
    def test_eval_exact(self):
        proc = run_cli("bernstein", "eval", "--k", "1", "--n", "2", "--u", "1/3")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "4/9"

    def test_eval_float(self):
        proc = run_cli("bernstein", "eval", "--k", "2", "--n", "5", "--x", "0.37", "--q", "0.8")
        assert proc.returncode == 0
        float(proc.stdout.strip())  # parses as a float

    def test_eval_mode_conflict(self):
        proc = run_cli(
            "bernstein", "eval", "--k", "1", "--n", "2", "--u", "1/3", "--x", "0.2", "--q", "0.5"
        )
        assert proc.returncode == 2

    def test_eval_incomplete_float_path(self):
        proc = run_cli("bernstein", "eval", "--k", "1", "--n", "2", "--x", "0.2")
        assert proc.returncode == 2

    def test_eval_float_overflow_is_domain_error(self):
        proc = run_cli("bernstein", "eval", "--k", "1", "--n", "2", "--x", "2000", "--q", "2")
        assert proc.returncode == 3
        assert "domain error: float overflow" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eval_past_float_binomials_runs(self):
        # C(2000, 700) does not fit in a float, but the value does
        proc = run_cli("bernstein", "eval", "--k", "700", "--n", "2000", "--x", "0.3", "--q", "0.5")
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(0.0011387682321911522, rel=1e-9)

    def test_eval_negative_q_is_domain_error(self):
        proc = run_cli("bernstein", "eval", "--k", "1", "--n", "2", "--x", "0.2", "--q", "-0.5")
        assert proc.returncode == 3

    def test_upoly_negative_k_is_domain_error(self):
        proc = run_cli("bernstein", "upoly", "--k", "-1", "--n", "3")
        assert proc.returncode == 3
        assert "domain error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_upoly_csv(self):
        proc = run_cli("bernstein", "upoly", "--k", "1", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout == "power,coeff\n0,0\n1,2\n2,-2\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--k", "1", "--n", str(BERNSTEIN_NMAX_LIMIT + 1), "--u", "1/3"],
            ["eval", "--k", "1", "--n", "1000000000", "--u", "1/3"],
            ["eval", "--k", "1", "--n", str(BERNSTEIN_NMAX_LIMIT + 1), "--x", "0.5", "--q", "0.9"],
            ["upoly", "--k", "1", "--n", str(BERNSTEIN_NMAX_LIMIT + 1)],
            ["upoly", "--k", "0", "--n", "1000000000", "--format", "json"],
        ],
    )
    def test_degree_guard_trips_before_any_work(self, args, monkeypatch, capsys):
        def no_work(*a):
            raise AssertionError("a basis member was built")

        monkeypatch.setattr(qbernstein.cli, "basis_eval_exact", no_work)
        monkeypatch.setattr(qbernstein.cli, "basis_eval_real", no_work)
        monkeypatch.setattr(qbernstein.cli, "emit_table", no_work)
        assert main(["bernstein", *args]) == 2
        assert "work limit" in capsys.readouterr().err

    def test_largest_admissible_degree_runs(self, capsys):
        n = str(BERNSTEIN_NMAX_LIMIT)
        assert main(["bernstein", "eval", "--k", "1", "--n", n, "--u", "1/2"]) == 0
        want = Fraction(BERNSTEIN_NMAX_LIMIT, 2**BERNSTEIN_NMAX_LIMIT)
        assert capsys.readouterr().out.strip() == str(want)
        assert main(["bernstein", "upoly", "--k", "0", "--n", n]) == 0
        assert len(capsys.readouterr().out.splitlines()) == BERNSTEIN_NMAX_LIMIT + 2


class TestOperatorCommand:
    def test_monomial_grid(self):
        proc = run_cli("operator", "--f", "t^2", "--n", "4", "--q", "0.9", "--grid", "0:1:0.25")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 6  # header + 5 grid points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # f(0) = 0 and only B_{0,n} survives at x = 0

    def test_samples_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("k,f\n0,1\n1,1\n2,1\n")
        proc = run_cli("operator", "--samples", str(path), "--q", "0.7", "--grid", "0:1:0.5")
        assert proc.returncode == 0
        for line in proc.stdout.splitlines()[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_huge_sample_literal_keeps_the_digit_limit(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,1\n1," + "7" * 5000 + "\n")
        proc = run_cli("operator", "--samples", str(path), "--q", "0.7")
        assert proc.returncode == 2
        assert "malformed samples row 2" in proc.stderr

    def test_samples_with_gap_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,1\n2,1\n")
        proc = run_cli("operator", "--samples", str(path), "--q", "0.7")
        assert proc.returncode == 2

    def test_requires_exactly_one_integrand(self):
        assert run_cli("operator", "--q", "0.9").returncode == 2
        proc = run_cli("operator", "--f", "t^2", "--samples", "x.csv", "--n", "2", "--q", "0.9")
        assert proc.returncode == 2

    def test_bad_monomial_spec(self):
        proc = run_cli("operator", "--f", "exp(t)", "--n", "4", "--q", "0.9")
        assert proc.returncode == 2

    def test_json_format(self):
        proc = run_cli(
            "operator", "--f", "t^1", "--n", "3", "--q", "0.9", "--grid", "0:1:0.5",
            "--format", "json",
        )
        rows = json.loads(proc.stdout)
        assert [r["x"] for r in rows] == [0.0, 0.5, 1.0]

    def test_grid_endpoint_within_rounding_is_kept(self, capsys):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert main(["operator", "--f", "t", "--n", "1", "--q", "0.9", "--grid", "0:0.3:0.1"]) == 0
        xs = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert xs == ["0.0", "0.1", "0.2", "0.3"]

    def test_float_overflow_is_domain_error(self):
        proc = run_cli("operator", "--f", "t^2", "--n", "3", "--q", "2", "--grid", "0:1100:100")
        assert proc.returncode == 3
        assert "domain error: float overflow" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:1:nan", "0:1:0", "1:0:0.1"])
    def test_malformed_grid_is_usage_error(self, grid):
        with pytest.raises(SystemExit) as exc:
            main(["operator", "--f", "t", "--n", "1", "--q", "0.9", "--grid", grid])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--f", "t^2", "--n", "3", "--grid", "0:1:1e-7"],
            ["--f", "t^2", "--n", "3", "--grid", "0:1:1e-300"],
            ["--f", "t^2", "--n", "3", "--grid", "0:inf:1"],
            ["--f", "t^2", "--n", "3", "--grid=-1e308:1e308:1"],
            ["--f", "t^2", "--n", str(OPERATOR_NMAX_LIMIT + 1), "--grid", "0:0:1"],
            ["--f", f"t^{OPERATOR_NMAX_LIMIT + 1}", "--n", "2", "--grid", "0:0:1"],
            ["--f", "t", "--n", str(OPERATOR_WORK_LIMIT // 2), "--grid", "0:1:1"],
        ],
    )
    def test_work_guard_trips_before_any_work(self, args, monkeypatch, capsys):
        def no_work(*a):
            raise AssertionError("the operator ran")

        monkeypatch.setattr(qbernstein.cli, "monomial_samples", no_work)
        monkeypatch.setattr(qbernstein.cli, "operator_eval_real", no_work)
        assert main(["operator", "--q", "0.9", *args]) == 2
        assert "work limit" in capsys.readouterr().err

    def test_work_guard_checks_the_samples_degree(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "f.csv"
        path.write_text("".join(f"{k},1\n" for k in range(OPERATOR_NMAX_LIMIT + 2)))
        monkeypatch.setattr(qbernstein.cli, "operator_eval_real", None)
        assert main(["operator", "--samples", str(path), "--q", "0.9"]) == 2
        assert "work limit" in capsys.readouterr().err

    def test_largest_admissible_grid_runs(self, capsys):
        # 0:1:1e-5 has 100001 points, so degree 1 stays within the limit
        assert main(["operator", "--f", "t", "--n", "1", "--q", "0.9", "--grid", "0:1:1e-5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 100002


class TestPadicCommand:
    def test_frozen_output(self):
        proc = run_cli("padic", "--p", "3", "--q", "4", "--n", "1", "--levels", "2")
        assert proc.returncode == 0
        assert proc.stdout == "level,sum,valuation\n1,4,1\n2,17476,2\n"

    def test_deep_level_prints_in_full(self):
        proc = run_cli("padic", "--q", "4", "--n", "4", "--levels", "7")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 8

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "6", "--levels", "10"],
            ["--n", "1", "--levels", "1000000000"],
            ["--n", str(EULER_NMAX_LIMIT + 1), "--levels", "1"],
            # n = 6, level 9 passes at q = 4 (3 bits), not at 20 bits
            ["--q", "1000003/1000000", "--n", "6", "--levels", "9"],
            # 61 * 20 bits exceeds the E-table bound
            ["--q", "1000003/1000000", "--n", "61", "--levels", "1"],
        ],
    )
    def test_work_guard_trips_before_any_work(self, args, monkeypatch, capsys):
        def no_work(*a):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(qbernstein.cli, "fermionic_sum", no_work)
        monkeypatch.setattr(qbernstein.cli, "euler_number", no_work)
        assert main(["padic", "--p", "3", "--q", "4", *args]) == 2
        assert "work limit" in capsys.readouterr().err

    def test_level_eleven_runs(self, capsys):
        assert main(["padic", "--p", "3", "--q", "4", "--n", "1", "--levels", "11"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, 12))
        assert all(int(row.split(",")[2]) >= level for level, row in enumerate(rows, 1))

    def test_exact_agreement_prints_inf(self):
        proc = run_cli("padic", "--p", "3", "--q", "4", "--n", "0", "--levels", "1")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "1,1,inf"

    def test_bad_prime(self):
        assert run_cli("padic", "--p", "4", "--n", "1").returncode == 3

    def test_bad_levels(self):
        assert run_cli("padic", "--p", "3", "--n", "1", "--levels", "0").returncode == 2


class TestVerifyCommand:
    def test_small_suite_passes(self):
        proc = run_cli("verify", "--suite", "stirling", "--q", "1/2", "--nmax", "6")
        assert proc.returncode == 0
        assert "result: PASS" in proc.stdout

    def test_byte_identical_runs(self):
        args = ("verify", "--suite", "euler", "--q", "1/2", "--q", "5/4")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_empty_q_is_usage_error(self):
        assert run_cli("verify", "--q", "").returncode == 2

    def test_out_of_bounds_nmax(self):
        assert run_cli("verify", "--nmax", "33").returncode == 2

    def test_pole_q_is_domain_error(self):
        assert run_cli("verify", "--suite", "euler", "--q", "1").returncode == 3

    @pytest.mark.parametrize("q", ["0", "1", "-1"])
    def test_poles_rejected_before_any_suite(self, q, monkeypatch, capsys):
        def no_suite(cfg):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(qbernstein.cli, "run_verify_suite", no_suite)
        assert main(["verify", "--q", "1/2", "--q", q]) == 3
        err = capsys.readouterr().err
        assert f"q = {q} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--nmax", "0"), ("--kmax", "5")])
    def test_bounds_rejected_before_any_suite(self, flag, value, monkeypatch, capsys):
        def no_suite(cfg):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(qbernstein.cli, "run_verify_suite", no_suite)
        assert main(["verify", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:]} must lie in" in err
        assert "Traceback" not in err

    def test_raised_nmax_run_passes(self, capsys):
        assert main(["verify", "--suite", "bernstein", "--q", "1/2", "--nmax", "20"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify", "--suite", "integrals", "--q", "1/2", "--nmax", "5",
            "--smax", "2", "--kmax", "1", "--include-printed-counterexamples",
            "--out", str(out),
        )
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0
        assert report["summary"]["counterexamples"] == 4
        assert all(e["verdict"] == "fail" for e in report["counterexamples"])
        assert "counterexamples (expected to fail):" in proc.stdout


def test_in_process_main(capsys):
    rc = main(["euler", "--q", "1/2", "--nmax", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "n,E\n0,1\n1,-2/3\n2,-4/15\n"


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


_INT = st.integers(-2, 12).map(str)
_REAL = st.sampled_from(["0", "0.37", "0.9", "1", "2", "-0.5", "1100", "2000", "nan", "inf"])
_RATIONAL = st.sampled_from(["1/2", "2/3", "4", "7/4", "0", "1", "-1", "3/0", "0.5"])
_GRID_END = st.sampled_from(["0", "1", "0.3", "1100", "-1", "inf", "nan"])
_GRID_STEP = st.sampled_from(["0.25", "0.1", "100", "1e-7", "0", "-1", "nan"])
_FORMAT = st.sampled_from(["csv", "json"])


def _flag(name, values):
    """Either nothing or the flag followed by a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["euler", "eval", "upoly", "operator", "padic"]))
    if command == "euler":
        argv = ["euler", *draw(_flag("--q", _RATIONAL)), *draw(_flag("--nmax", _INT))]
        return argv + draw(_flag("--format", _FORMAT))
    if command == "eval":
        argv = ["bernstein", "eval", "--k", draw(_INT), "--n", draw(_INT)]
        argv += draw(_flag("--x", _REAL)) + draw(_flag("--q", _REAL))
        return argv + draw(_flag("--u", _RATIONAL))
    if command == "upoly":
        return ["bernstein", "upoly", "--k", draw(_INT), "--n", draw(_INT)]
    if command == "operator":
        spec = draw(st.sampled_from(["t", "t^0", "t^3", "t^-1", "exp(t)"]))
        grid = f"{draw(_GRID_END)}:{draw(_GRID_END)}:{draw(_GRID_STEP)}"
        argv = ["operator", "--f", spec, *draw(_flag("--n", _INT)), "--q", draw(_REAL)]
        return argv + [f"--grid={grid}"] + draw(_flag("--format", _FORMAT))
    argv = ["padic", "--p", draw(st.sampled_from(["-3", "0", "1", "2", "3", "5", "9"]))]
    argv += ["--q", draw(_RATIONAL), "--n", draw(st.integers(-1, 4).map(str))]
    return argv + ["--levels", draw(st.integers(-1, 3).map(str))]


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["bernstein", "eval", "--k", "1", "--n", "2", "--x", "2000", "--q", "2"])
@example(["operator", "--f", "t^2", "--n", "3", "--q", "2", "--grid", "0:1100:100"])
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()  # `qb` writes bytes too
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
