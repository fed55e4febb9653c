"""The scripts under scripts/.

classical_limit_sweep.py must show its gaps to the classical basis
shrinking linearly in |1 - q|.  Every script line of README's "Experiment
scripts" block must run.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "scripts" / "classical_limit_sweep.py"


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
