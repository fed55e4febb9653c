import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qbernstein.cli
import qbernstein.kernel
from qbernstein.cli import (
    BERNSTEIN_NMAX_LIMIT,
    EULER_NMAX_LIMIT,
    OPERATOR_NMAX_LIMIT,
    OPERATOR_WORK_LIMIT,
    main,
)
from qbernstein.euler import euler_number, fermionic_sum
from qbernstein.kernel import DomainError, binomial_coeff, format_rational, padic_valuation
from qbernstein.verify import IdentityReport, ReportEntry, VerifyConfig


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

        monkeypatch.setattr(qbernstein.cli, "euler_table", no_table)
        assert main(["euler", "--q", "1/2", "--nmax", str(EULER_NMAX_LIMIT + 1)]) == 2
        assert "work limit" in capsys.readouterr().err

    def test_nmax_guard_counts_the_bits_of_q(self, monkeypatch, capsys):
        def no_table(q, nmax):
            raise AssertionError("the E-table was built")

        monkeypatch.setattr(qbernstein.cli, "euler_table", no_table)
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

    def test_eval_where_the_float_product_overflows_runs(self):
        # C(1029, 514) fits in a float, but C(n,k) * 1.5**514 does not
        proc = run_cli("bernstein", "eval", "--k", "514", "--n", "1029", "--x", "1.5", "--q", "1")
        assert proc.returncode == 0
        exact = float(binomial_coeff(1029, 514) * Fraction(3, 2) ** 514 * Fraction(-1, 2) ** 515)
        assert float(proc.stdout) == pytest.approx(exact, rel=1e-9)
        assert exact == pytest.approx(-4.32e243, rel=1e-3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "0.2", "--q", "-0.5"],
            ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "0.5", "--q", "nan"],
            ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "0.5", "--q", "inf"],
            ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "nan", "--q", "0.5"],
            ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "nan", "--q", "1"],
            ["operator", "--f", "t", "--n", "2", "--q", "nan", "--grid", "0:1:0.5"],
            ["operator", "--f", "t", "--n", "2", "--q", "inf", "--grid", "0:1:0.5"],
        ],
    )
    def test_float_input_outside_the_domain_is_domain_error(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("domain error: ")

    def test_upoly_negative_k_is_domain_error(self):
        proc = run_cli("bernstein", "upoly", "--k", "-1", "--n", "3")
        assert proc.returncode == 3
        assert proc.stderr == "domain error: k must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "index, name", [(["--k", "-1", "--n", "3"], "k"), (["--k", "1", "--n", "-1"], "n")]
    )
    @pytest.mark.parametrize(
        "path", [["--u", "1/2"], ["--x", "0.5", "--q", "0.5"]], ids=["exact", "float"]
    )
    def test_eval_negative_index_is_domain_error(self, index, name, path, monkeypatch, capsys):
        def no_work(*a):
            raise AssertionError("a basis member was evaluated")

        monkeypatch.setattr(qbernstein.cli, "basis_eval_exact", no_work)
        monkeypatch.setattr(qbernstein.cli, "basis_eval_real", no_work)
        assert main(["bernstein", "eval", *index, *path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"domain error: {name} must be nonnegative, got -1\n"

    def test_upoly_csv(self):
        proc = run_cli("bernstein", "upoly", "--k", "1", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout == "power,coeff\n0,0\n1,2\n2,-2\n"

    def test_upoly_pads_to_degree(self, capsys):
        # B_{4,2} = 0: one zero row per power up to n
        assert main(["bernstein", "upoly", "--k", "4", "--n", "2"]) == 0
        assert capsys.readouterr().out == "power,coeff\n0,0\n1,0\n2,0\n"

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
        monkeypatch.setattr(qbernstein.cli, "basis_upoly", no_work)
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

    @pytest.mark.parametrize("text", ["k,f\n0,1\n1,1\n2,1\n", "\ufeff0,1\n1,1\n2,1\n"], ids=["plain", "bom"])
    def test_samples_file(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        proc = run_cli("operator", "--samples", str(path), "--q", "0.7", "--grid", "0:1:0.5")
        assert proc.returncode == 0
        assert proc.stdout == "x,value\n0.0,1.0\n0.5,1.0\n1.0,1.0\n"

    @pytest.mark.parametrize(
        "data", [b"0,1\n1,\xff\n", b"0," + b"1" * 200_000 + b"\n"], ids=["not-utf-8", "long-field"]
    )
    def test_unreadable_samples_file_is_a_usage_error(self, tmp_path, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        proc = run_cli("operator", "--samples", str(path), "--q", "0.7")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: cannot read samples file: ")

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

    def test_negative_degree_is_domain_error(self):
        proc = run_cli("operator", "--f", "t^2", "--n", "-1", "--q", "0.5")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "domain error: n must be nonnegative, got -1\n"

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

    @pytest.mark.parametrize(
        "p, q, n, levels",
        [(3, "4", 2, 4), (3, "-5/4", 2, 3), (5, "6", 1, 3), (5, "11/6", 2, 2), (7, "8", 3, 2)],
    )
    def test_columns_are_the_sum_and_its_valuation_gap(self, p, q, n, levels, capsys):
        # S_N tends p-adically to E_n: v_p(S_N - E_n) >= level
        argv = ["padic", "--p", str(p), f"--q={q}", "--n", str(n), "--levels", str(levels)]
        assert main(argv) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        q, limit = Fraction(q), euler_number(n, Fraction(q))
        assert [int(row[0]) for row in rows] == list(range(1, levels + 1))
        for level, (_, text, v) in enumerate(rows, 1):
            s = fermionic_sum(n, q, p, level)
            assert text == format_rational(s)
            assert int(v) == padic_valuation(s - limit, p) >= level

    def test_sum_past_the_digit_limit_prints_in_full(self, capsys):
        # S_N at level 8 has a numerator of 5,543 digits, past the
        # interpreter's 4,300-digit int-to-str limit
        assert main(["padic", "--p", "3", "--q", "4/7", "--n", "1", "--levels", "8"]) == 0
        level, text, v = capsys.readouterr().out.splitlines()[-1].split(",")
        s = fermionic_sum(1, Fraction(4, 7), 3, 8)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(s.numerator)) > saved
            assert (level, text, v) == ("8", format_rational(s), "8")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_exact_agreement_prints_inf(self):
        proc = run_cli("padic", "--p", "3", "--q", "4", "--n", "0", "--levels", "1")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "1,1,inf"

    @pytest.mark.parametrize("q", ["2", "1/3", "-1"])
    def test_regime_is_checked_before_any_work(self, q, monkeypatch, capsys):
        def no_work(*a):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(qbernstein.cli, "fermionic_sum", no_work)
        monkeypatch.setattr(qbernstein.cli, "euler_number", no_work)
        assert main(["padic", "--p", "3", f"--q={q}", "--n", "300", "--levels", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "domain error: need |q|_p <= 1 and |1-q|_p < 1 for p-adic convergence\n"

    def test_bad_prime(self):
        assert run_cli("padic", "--p", "4", "--n", "1").returncode == 3

    def test_huge_odd_prime_meets_the_work_limit(self):
        # the work limit refuses p before the prime test is asked about it
        argv = ["padic", "--p", "1000000000000000009", "--q", "4", "--n", "1", "--levels", "1"]
        proc = run_cli(*argv, timeout=10)
        assert proc.returncode == 2
        assert "work limit" in proc.stderr

    @pytest.mark.parametrize("p", [10**18 + 9, 10**18 + 7, 3**40])  # a prime and two composites
    def test_work_limit_comes_before_the_prime_test(self, p, monkeypatch, capsys):
        def no_prime_test(*a):
            raise AssertionError("the prime test ran")

        monkeypatch.setattr(qbernstein.kernel, "is_odd_prime", no_prime_test)
        assert main(["padic", "--p", str(p), "--q", "4", "--n", "1", "--levels", "1"]) == 2
        assert "work limit" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [-3, 0, 1, 2, 10**30])
    def test_cheap_refusals_come_before_the_work_limit(self, p, capsys):
        assert main(["padic", "--p", str(p), "--q", "4", "--n", "1", "--levels", "1"]) == 3
        assert capsys.readouterr().err == f"domain error: p must be an odd prime, got {p}\n"

    def test_bad_levels(self):
        assert run_cli("padic", "--p", "3", "--n", "1", "--levels", "0").returncode == 2

    def test_negative_n_names_n(self):
        proc = run_cli("padic", "--p", "3", "--n", "-1")
        assert proc.returncode == 3
        assert proc.stderr == "domain error: n must be nonnegative, got -1\n"


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

    @pytest.mark.parametrize("target", [".", "missing-dir/report.json"])
    def test_out_rejected_before_any_suite(self, target, tmp_path, monkeypatch, capsys):
        def no_suite(cfg):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(qbernstein.cli, "run_verify_suite", no_suite)
        out = str(tmp_path / target)
        assert main(["verify", "--suite", "stirling", "--q", "1/2", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: --out {out}")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_write_error_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def refuse(self, text):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(qbernstein.cli.Path, "write_text", refuse)
        out = str(tmp_path / "report.json")
        assert main(["verify", "--suite", "stirling", "--q", "1/2", "--out", out]) == 2
        captured = capsys.readouterr()
        assert "result: PASS" in captured.out
        assert captured.err.startswith("usage error: cannot write the report: ")

    def test_repeated_q_rejected_before_any_suite(self, monkeypatch, capsys):
        def no_suite(cfg):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(qbernstein.cli, "run_verify_suite", no_suite)
        assert main(["verify", "--suite", "stirling", "--q", "1/2", "--q", "2/4"]) == 2
        err = capsys.readouterr().err
        assert "q = 1/2 is repeated" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers, side", [(1, "in_parent"), (2, "in_parent"), (2, "in_child")])
    def test_domain_error_in_a_suite_exits_alike_in_any_worker(
        self, workers, side, stub_suites, capsys
    ):
        def fail(name):
            raise DomainError(f"{name} went wrong")

        stub_suites(workers, **{side: fail})
        assert main(["verify", "--q", "1/2", "--nmax", "1", "--smax", "1", "--kmax", "0"]) == 3
        assert re.search(r"domain error: \w+ went wrong", capsys.readouterr().err)

    # one flag per VerifyConfig field, each set away from its default
    CONFIG_FLAGS = {
        "suite": (["--suite", "euler"], "euler"),
        "qs": (["--q", "1/3", "--q=-7/2"], (Fraction(1, 3), Fraction(-7, 2))),
        "nmax": (["--nmax", "5"], 5),
        "smax": (["--smax", "1"], 1),
        "kmax": (["--kmax", "3"], 3),
        "include_printed_counterexamples": (["--include-printed-counterexamples"], True),
    }

    def _config(self, argv, monkeypatch):
        class Handed(Exception):
            pass

        def capture(cfg):
            raise Handed(cfg)

        monkeypatch.setattr(qbernstein.cli, "run_verify_suite", capture)
        with pytest.raises(Handed) as handed:
            main(["verify", *argv])
        return handed.value.args[0]

    def test_no_flags_hand_on_the_default_config(self, monkeypatch):
        assert self._config([], monkeypatch) == VerifyConfig()

    def test_every_config_field_has_a_flag(self):
        assert set(self.CONFIG_FLAGS) == set(VerifyConfig.__slots__)

    @pytest.mark.parametrize("field", sorted(CONFIG_FLAGS))
    def test_each_flag_sets_its_field(self, field, monkeypatch):
        argv, value = self.CONFIG_FLAGS[field]
        assert getattr(VerifyConfig(), field) != value
        assert self._config(argv, monkeypatch) == VerifyConfig(**{field: value})

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

    def test_each_counterexample_line_names_its_instance(self, monkeypatch, capsys):
        printed = "integrals.reflected_printed"
        stub = IdentityReport(
            counterexamples=[
                ReportEntry(printed, {"k": "1", "pairs": "(3,1)", "q": "1/2"}, "-4/3", "2/15", "fail"),
                ReportEntry(printed, {"k": "1", "pairs": "(2,2)", "q": "1/2"}, "1", "1", "pass"),
            ]
        )
        monkeypatch.setattr(qbernstein.cli, "run_verify_suite", lambda cfg: stub)
        assert main(["verify", "--include-printed-counterexamples"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith(printed)]
        assert lines == [
            f"{printed:<44} UNEXPECTEDLY PASSING  (k=1, pairs=(2,2), q=1/2)",
            f"{printed:<44} failed as expected  (k=1, pairs=(3,1), q=1/2)",
        ]


# sha256 of stdout, taken while `qb operator` and `qb padic` still wrote
# their rows through hand-built csv writers of their own, and `qb euler` and
# `qb bernstein upoly` through table kinds of `qbernstein.tables`
PINNED_STDOUT = {
    "padic": (
        ["padic", "--p", "3", "--q", "4", "--n", "3", "--levels", "4"],
        "02c966bdebf6a2043360eec2c39d0600218e89c8ff38bdd410da9bb26778070a",
    ),
    "operator-csv": (
        ["operator", "--f", "t^2", "--n", "4", "--q", "0.9", "--grid", "0:1:0.25"],
        "be58396563725a8e8c6da177618cbe2d276f750600bcc3295f2967a91a951c89",
    ),
    "operator-json": (
        ["operator", "--f", "t^2", "--n", "4", "--q", "0.9", "--grid", "0:1:0.25", "--format", "json"],
        "583c8dd7c33d584ba83825dec032f4a3b2fae529f2bb382d0bc08c5c2274771b",
    ),
    "euler-csv": (
        ["euler", "--q", "1/2", "--nmax", "12"],
        "22edcbfdb48de582189fdfbb907d34743c10f700bb572954b933f14a862374e8",
    ),
    "euler-json": (
        ["euler", "--q", "5/4", "--nmax", "6", "--format", "json"],
        "695e7817ac56fd0b559b99497a78041e3a397cb10eb02b67e57b2bb5bb4892e6",
    ),
    "upoly-csv": (
        ["bernstein", "upoly", "--k", "4", "--n", "2"],
        "ecab2379e87cc76cb2f420b9bdef6d7ad60cd447f0006bd466ce49a9236a87aa",
    ),
    "upoly-json": (
        ["bernstein", "upoly", "--k", "2", "--n", "5", "--format", "json"],
        "eaf6a806825600043d6cc9171640d9e0ed45f489c7a77b85bb8ad94ac5eb0567",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(name):
    argv, digest = PINNED_STDOUT[name]
    proc = subprocess.run(
        [sys.executable, "-m", "qbernstein.cli", *argv], capture_output=True, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_in_process_main(capsys):
    rc = main(["euler", "--q", "1/2", "--nmax", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "n,E\n0,1\n1,-2/3\n2,-4/15\n"


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


# a negative number after a space, against the same value after "="
NEGATIVE_VALUES = {
    "euler": ["euler", "--q", "-3/2", "--nmax", "7"],
    "verify": ["verify", "--suite", "stirling", "--q", "-7/3"],
    "bernstein": ["bernstein", "eval", "--k", "1", "--n", "3", "--u", "-1/2"],
    "padic": ["padic", "--q", "-5/4", "--n", "2", "--levels", "3"],
    "exponent-float": ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "-1e-3", "--q", "0.5"],
    "grid": ["operator", "--f", "t", "--n", "1", "--q", "0.5", "--grid", "-1:1:0.5"],
    "infinite-x": ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "-inf", "--q", "0.5"],
}


def _spaced_and_joined(argv):
    """Run argv, and argv with its negative value joined to its option by "="."""
    at = next(i for i, arg in enumerate(argv) if re.match(r"-([\d.]|inf|nan)", arg, re.I))
    joined = argv[: at - 1] + [f"{argv[at - 1]}={argv[at]}"] + argv[at + 1 :]
    return run_cli(*argv), run_cli(*joined)


@pytest.mark.parametrize("argv", list(NEGATIVE_VALUES.values()), ids=list(NEGATIVE_VALUES))
def test_negative_rational_after_a_space_is_a_value(argv):
    spaced, equals = _spaced_and_joined(argv)
    assert spaced.returncode == 0, spaced.stderr
    assert (spaced.stdout, spaced.stderr) == (equals.stdout, equals.stderr)
    assert spaced.returncode == equals.returncode


# values that float() reads but that the command may refuse: the refusal must
# be the command's own, as after "=", never argparse's "expected one argument"
NONFINITE_VALUES = {
    "x-Infinity": ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "-Infinity", "--q", "0.5"],
    "x-INF": ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "-INF", "--q", "0.5"],
    "x-nan": ["bernstein", "eval", "--k", "1", "--n", "2", "--x", "-nan", "--q", "0.5"],
    "grid-inf": ["operator", "--f", "t", "--n", "1", "--q", "0.5", "--grid", "-inf:0:1"],
    "q-inf": ["euler", "--q", "-inf", "--nmax", "7"],
}


@pytest.mark.parametrize("argv", list(NONFINITE_VALUES.values()), ids=list(NONFINITE_VALUES))
def test_nonfinite_value_after_a_space_is_a_value(argv):
    spaced, equals = _spaced_and_joined(argv)
    assert "expected one argument" not in spaced.stderr
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (
        equals.returncode,
        equals.stdout,
        equals.stderr,
    )


@pytest.mark.parametrize("value", [["--nmax", "7"], ["-x", "--nmax", "7"]], ids=["missing", "-x"])
def test_option_after_an_option_is_still_a_usage_error(value):
    proc = run_cli("euler", "--q", *value)
    assert proc.returncode == 2
    assert "expected one argument" in proc.stderr
