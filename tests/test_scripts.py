"""The scripts under scripts/.

classical_limit_sweep.py must show its gaps to the classical basis
shrinking linearly in |1 - q|.  report_diff.py must count, per identity,
the entries that went, were added or changed between two reports, and
import nothing from the package.  Every script line of README's
"Experiment scripts" block must run.
"""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "scripts" / "classical_limit_sweep.py"
REPORT_DIFF = ROOT / "scripts" / "report_diff.py"


def test_classical_limit_gaps_shrink_linearly_in_one_minus_q():
    # q = 1 - 10**-e for e = 1..7: each step cuts |1 - q| tenfold, and both
    # gap columns must follow within a factor of two
    argv = [sys.executable, str(SWEEP), "--nmax", "2", "--grid-steps", "4"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=SWEEP.parents[1])
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 7
    for column in (1, 2):
        gaps = [float(row[column]) for row in rows]
        assert all(0 < later <= earlier / 5 for earlier, later in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("path", [SWEEP], ids=lambda path: path.name)
def test_script_runs_from_any_directory(path, tmp_path):
    # without PYTHONPATH, the script alone must find the package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(path), "--nmax", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr


def test_readme_script_examples_run():
    section = (ROOT / "README.md").read_text().split("## Experiment scripts", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("python3 scripts/")]
    assert lines
    for line in lines:
        argv = [sys.executable, *shlex.split(line)[1:]]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, (line, proc.stderr)


def _report(entries, counterexamples=()):
    def entry(identity_id, params, lhs, rhs="1", verdict="pass"):
        return {"identity_id": identity_id, "params": params, "lhs": lhs, "rhs": rhs, "verdict": verdict}

    return {
        "summary": {"checks": len(entries)},
        "entries": [entry(*e) for e in entries],
        "counterexamples": [entry(*e) for e in counterexamples],
    }


def _report_diff(tmp_path, old, new):
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(report, indent=2) + "\n")
    return subprocess.run(
        [sys.executable, str(REPORT_DIFF), *map(str, paths)], capture_output=True, text=True
    )


def test_report_diff_counts_what_went_was_added_or_changed(tmp_path):
    printed = [("b.printed", {"k": "1"}, "2", "1", "fail")]
    old = _report(
        [
            ("a.kept", {"n": "1"}, "1"),
            ("a.kept", {"n": "2"}, "1"),
            ("b.bridge", {"m": "0", "n": "1"}, "1"),
            ("b.bridge", {"m": "2", "n": "1"}, "1"),
            ("b.channel", {}, "2.9980000000000003e-06", "2.998e-06"),
            ("c.gone", {"j": "0"}, "1"),
        ],
        printed,
    )
    new = _report(
        [
            ("a.kept", {"n": "1"}, "1"),
            ("a.kept", {"n": "2"}, "1"),
            ("b.bridge", {"m": "2", "n": "1"}, "1"),
            ("b.channel", {}, "1499/500000000", "1499/500000000"),
            ("d.new", {}, "1"),
        ],
        printed,
    )
    proc = _report_diff(tmp_path, old, new)
    assert proc.returncode == 1, proc.stderr
    counts = {}
    for line in proc.stdout.splitlines():
        words = line.split()
        if len(words) == 9 and words[1] == "went":
            counts[words[0]] = tuple(map(int, words[2::2]))
    # (went, added, changed, kept) per identity that moved
    assert counts == {
        "b.bridge": (1, 0, 0, 1),
        "b.channel": (0, 0, 1, 0),
        "c.gone": (1, 0, 0, 0),
        "d.new": (0, 1, 0, 0),
    }
    assert "entries: 6 -> 5" in proc.stdout
    assert '"2.9980000000000003e-06" -> "1499/500000000"' in proc.stdout
    assert "unchanged: 1 identities; 3 entries kept byte-identical" in proc.stdout
    assert proc.stdout.endswith("counterexamples: 1 -> 1\n  unchanged: 1 identities; 1 entries kept byte-identical\n")


def test_report_diff_compares_the_counterexamples(tmp_path):
    entries = [("a.kept", {"n": "1"}, "1")]
    old = _report(entries, [("b.printed", {"k": "1"}, "2", "1", "fail")])
    same = _report_diff(tmp_path, old, old)
    assert same.returncode == 0, same.stderr
    new = _report(entries, [("b.printed", {"k": "1"}, "1", "1", "pass")])
    proc = _report_diff(tmp_path, old, new)
    assert proc.returncode == 1
    section = proc.stdout.split("counterexamples: 1 -> 1\n", 1)[1]
    assert "b.printed" in section and '"fail" -> "pass"' in section


def test_report_diff_imports_nothing_from_the_package():
    tree = ast.parse(REPORT_DIFF.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not [m for m in modules if m.split(".")[0] == "qbernstein"]
