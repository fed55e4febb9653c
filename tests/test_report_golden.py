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
# ((2,2),(3,1)); no kept entry moved.  All but the integrals-raised pair
# were taken again when stirling.basis_expansion_bridge went (the bernstein
# suite's monomial_in_basis owns its statement), operator_stirling_bridge
# started at m = 2 (operator_constant and operator_linear decide t^0 and
# t^1), and bernstein.binary_channel_value became exact (1499/500000000);
# no other kept entry moved.
GOLDEN = {
    "all": (
        ["--suite", "all"],
        "ea470228fe87878504b556d15d95464de3afebb1b84c00d29630f0ff1e141b8a",
    ),
    "all-with-counterexamples": (
        ["--suite", "all", "--include-printed-counterexamples"],
        "c190c8bf01c26cac1a7080db8067a7cceeb3d20b7449ab050fb80ca07021d791",
    ),
    # moved only by the operator_methods_agree entries at t^0 and t^1, then by
    # the operator_stirling_bridge entries at m < 2 and the exact channel value
    "bernstein-nmax16": (
        ["--suite", "bernstein", "--nmax", "16"],
        "92864291eccc144db1c54c82a1ceaa1a619d2834e35847aad83350cda29a4c05",
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
        "3086ee9148aee7ec616866d6dd02fb0c83032463fb031a9ae8e7efdc513c7dae",
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
        "d3a3bf03938f89d8667a6b5584e836a6c5010cce9c2ae2bd76b54734f5bff2d7",
    ),
}


# sha256 of `qb verify` stdout for the GOLDEN argv lists, taken again with
# the report digests above: the per-identity lines follow the same change,
# and each counterexample line names its params
GOLDEN_STDOUT = {
    "all": "db72225c6cb0517d416af5114c07a080946ac4d340c4fcc70a0d6bace0a48f78",
    "all-low-bounds-with-counterexamples": (
        "2490f6f8b0d2845830064a9e0508ae7c28531a75b81daf3766974a48783bdf75"
    ),
    "all-offgrid-q-with-counterexamples": (
        "34c5405936474f7079e3d1581ee6a6d81c1bd848fc2fe65c8cef8b8730789c3d"
    ),
    "all-with-counterexamples": "70b53e40d0eab8fc62cc9bcdfffb812d63e6863773a94cff9c97f95ae44564dc",
    "bernstein-nmax16": "5c282a195a2b5f402e1114648a751c46516c73b2d728f1228e80a2b43288af81",
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
