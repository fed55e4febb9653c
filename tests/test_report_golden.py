"""Byte-identity of the `qb verify` JSON report and of its stdout.

The report digests were taken from reports written by the Fraction-based
kernels, before the integer E-table, UPoly and truncated-sum kernels
replaced them.  Any change to the report's bytes, deliberate or not, fails
here; a deliberate one must update the digest and say why.
"""

import hashlib
import subprocess
import sys

import pytest

from qbernstein import verify
from qbernstein.cli import main

GOLDEN = {
    "all": (
        ["--suite", "all"],
        "e5aad3457c5cbef6c1de2c5200ef16b6a72768e835d737d143da2d79a9f16bc7",
    ),
    "all-with-counterexamples": (
        ["--suite", "all", "--include-printed-counterexamples"],
        "986acf76c1fb750889e635ee4ffa79e36fcb91dbb0a10afdfcd38053f0cfc4eb",
    ),
    "bernstein-nmax16": (
        ["--suite", "bernstein", "--nmax", "16"],
        "55596e56269e54a55e689375c3512bcf1107eb8f14a51cb4ac17d4543515bb89",
    ),
    # kM up to 12 in the moment kernels; taken before the direct and
    # reflected routes were folded onto one kernel each
    "integrals-raised-with-counterexamples": (
        ["--suite", "integrals", "--kmax", "4", "--smax", "3", "--include-printed-counterexamples"],
        "8f72601421cffc1874bb03a593b3dfb3f06047fe9e86659018211439c33664e3",
    ),
    # q values the defaults never reach (negative, and q > 1 off the sample
    # set); taken before the q-number, q-Stirling, euler_poly, moment and
    # operator kernels moved onto integers
    "all-offgrid-q-with-counterexamples": (
        [
            "--suite", "all",
            "--q=-2/3", "--q", "7/4", "--q=-3", "--q", "1/5",
            "--nmax", "16", "--kmax", "3",
            "--include-printed-counterexamples",
        ],
        "8a55bf6c718ceb2de1aa54dced46ea64b2dac6f0fb80fcdf63d60530f6476a2a",
    ),
    # the lowest bounds: loops that start at 1, smax = 1 products and no
    # k > 0 moments; the other digests all run smax = 3 and nmax >= 12
    "all-low-bounds-with-counterexamples": (
        [
            "--suite", "all",
            "--q", "1/2", "--q=-7/3",
            "--nmax", "1", "--smax", "1", "--kmax", "0",
            "--include-printed-counterexamples",
        ],
        "586ba9cb61a47e98d8189f27b36bd2e7cd097988d4a40c10e3c54d2628e5258b",
    ),
}


# sha256 of `qb verify` stdout for the GOLDEN argv lists, taken while the
# per-identity summary lines were still counted in a dict and sorted again
GOLDEN_STDOUT = {
    "all": "1cd811e01116a35904f153eda7178d4ea9088387c78701a540e4c734554b2f2c",
    "all-low-bounds-with-counterexamples": (
        "9bd2103f84c7b7897cbcceb4806287fd1b7bfc1813eca6926009653e2f37bcf6"
    ),
    "all-offgrid-q-with-counterexamples": (
        "eb342f068864ab790b7103d0da0de066ecd988ad64b7978b889ffecf1fa14bdb"
    ),
    "all-with-counterexamples": "e1e153eb4dc8bdb753799f30e065b6050d1eca7fcb83485b0e29a3338e709dcc",
    "bernstein-nmax16": "283e6ca2081df407779f66e46947d1c593a651eed2b85ae3e26c3ae7384bf36d",
    "integrals-raised-with-counterexamples": (
        "9e4fd068726cd15becc35210d10481c41885488db739114b4db5fd3e22c157bd"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_match_golden_digest(name):
    argv, _ = GOLDEN[name]
    proc = subprocess.run(
        [sys.executable, "-m", "qbernstein.cli", "verify", *argv], capture_output=True
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_STDOUT[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest



@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_do_not_depend_on_the_cpu_count(name, workers, tmp_path, capsys, monkeypatch):
    # one worker per CPU: all in process at 1, forked children taking suites from the queue above
    monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
