"""Byte-identity of the `qb verify` JSON report and of its stdout.

The integer E-table, UPoly and truncated-sum kernels that replaced the
Fraction-based ones moved no byte of these reports; the comment above
``GOLDEN`` names the one announced change of the checks that did.  Any
change to the report's bytes, deliberate or not, fails here; a deliberate
one must update the digest and say why.
"""

import hashlib
import subprocess
import sys

import pytest

from qbernstein import verify
from qbernstein.cli import main

# Every digest was taken again when the four moment families became
# integrals.direct_vs_reflected, the anchors integrals.anchor and the
# reflected printed forms integrals.reflected_printed, and when the
# operator_methods_agree entries at t^0 and t^1 and the polynomial_closed_form
# entries at x = 0 went.  All but bernstein-nmax16 were taken again when
# integrals.direct_vs_reflected kept one entry per moment pair (kM, T - kM)
# and q, without zero-coefficient instances, stirling.basis_expansion_bridge
# ran at the smallest q only, and integrals.anchor gained k = 1 at pairs
# ((2,2),(3,1)); no kept entry moved.
GOLDEN = {
    "all": (
        ["--suite", "all"],
        "a5dfcb75b10e0c1a3714c95a720ec0952181f577a1a647b4243f4d78572e2463",
    ),
    "all-with-counterexamples": (
        ["--suite", "all", "--include-printed-counterexamples"],
        "27b5627015e37cd9cd354b06805e7659838684cb61054a088fee4a94e3cac2bb",
    ),
    # moved only by the operator_methods_agree entries at t^0 and t^1
    "bernstein-nmax16": (
        ["--suite", "bernstein", "--nmax", "16"],
        "6731859ffcfa194801e2558f90b20942023261ebb05f49866bbd8a509de444d4",
    ),
    # kM up to 12 in the moment kernels
    "integrals-raised-with-counterexamples": (
        ["--suite", "integrals", "--kmax", "4", "--smax", "3", "--include-printed-counterexamples"],
        "d700e4d644e6ec931b68e3da19125bc949b4e047100444183f3cafe381ad91ac",
    ),
    # q values the defaults never reach (negative, and q > 1 off the sample set)
    "all-offgrid-q-with-counterexamples": (
        [
            "--suite", "all",
            "--q=-2/3", "--q", "7/4", "--q=-3", "--q", "1/5",
            "--nmax", "16", "--kmax", "3",
            "--include-printed-counterexamples",
        ],
        "280ed2f4d2ba1b8d7a93cc9c1a2d086b31723e770e0b35cbcd8f1a461f1c7c54",
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
        "4e3cbe70a53a5249d43b726c566d9def542c9154193b474813cead4b39531f40",
    ),
}


# sha256 of `qb verify` stdout for the GOLDEN argv lists, taken again with
# the report digests above: the per-identity lines follow the same change,
# and each counterexample line names its params
GOLDEN_STDOUT = {
    "all": "25e5a1ab83876b9757b068a107e4596a7d6161b7edc7e7364f61a76de5e89b18",
    "all-low-bounds-with-counterexamples": (
        "f98bf4b4410bb781fc3eabfc169684de60a17d9f229673890996b5206e7528bf"
    ),
    "all-offgrid-q-with-counterexamples": (
        "8c41d5968031dd6cda0e7e6205457196884ad7b42c468f56fc6695fe8e499542"
    ),
    "all-with-counterexamples": "3c2bd8a42f21ebfdf858ebc18b4b2f80de9dd5f89475883d9cefece151bc4ac6",
    "bernstein-nmax16": "31c64e9e4272df4dd7bff9da2b756153024bfe24ef31d0144e9c7b52ae6fad7d",
    "integrals-raised-with-counterexamples": (
        "98b2c72dbd5f1e0006f875989b0fb6b63921cb611486cbda149e4f4cf450f880"
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
