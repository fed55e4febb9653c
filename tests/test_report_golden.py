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
# integrals.direct_vs_reflected (each instance once), the anchors
# integrals.anchor and the reflected printed forms integrals.reflected_printed,
# and when the operator_methods_agree entries at t^0 and t^1 and the
# polynomial_closed_form entries at x = 0 went; no other entry moved.
GOLDEN = {
    "all": (
        ["--suite", "all"],
        "fcaec2399e4fed92d1def0be1f363d4972ce8226443f3ea54c5ebf56683c0c01",
    ),
    "all-with-counterexamples": (
        ["--suite", "all", "--include-printed-counterexamples"],
        "91224b75bd7a6f2a326d171109501573c1bdf4104a401d6eb139093c68b16b16",
    ),
    # moved only by the operator_methods_agree entries at t^0 and t^1
    "bernstein-nmax16": (
        ["--suite", "bernstein", "--nmax", "16"],
        "6731859ffcfa194801e2558f90b20942023261ebb05f49866bbd8a509de444d4",
    ),
    # kM up to 12 in the moment kernels
    "integrals-raised-with-counterexamples": (
        ["--suite", "integrals", "--kmax", "4", "--smax", "3", "--include-printed-counterexamples"],
        "a4c62f380621f79deabce8041f96367bb2d6d246a152f1772df788314008fe66",
    ),
    # q values the defaults never reach (negative, and q > 1 off the sample set)
    "all-offgrid-q-with-counterexamples": (
        [
            "--suite", "all",
            "--q=-2/3", "--q", "7/4", "--q=-3", "--q", "1/5",
            "--nmax", "16", "--kmax", "3",
            "--include-printed-counterexamples",
        ],
        "7ea87ca8fe3a492671009522ed83ac0a5baf75f6c5c40b6ddbd918645e29caa2",
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
        "0d6e7472b8e7fce16bec673e383badf92caf4fa170ff811577a51354ff0a0af3",
    ),
}


# sha256 of `qb verify` stdout for the GOLDEN argv lists, taken again with
# the report digests above: the per-identity lines follow the same change
GOLDEN_STDOUT = {
    "all": "2794b9cba6a6ad364f98ad0c8e50aa0efab9fe61a0f1a1fbe73887d0176f121e",
    "all-low-bounds-with-counterexamples": (
        "ae906f00049487bafd9a7789909b19777fd793bc922264b5ca8ead6049af4002"
    ),
    "all-offgrid-q-with-counterexamples": (
        "7e2fea6a246869548d851c6a67c2d544ba2ebd0e850f21008a71b973b1ee24dc"
    ),
    "all-with-counterexamples": "929b59508e83596658bc7b81ef956cde445b7cd3ab4aeae32cc52c3a0947fc7d",
    "bernstein-nmax16": "31c64e9e4272df4dd7bff9da2b756153024bfe24ef31d0144e9c7b52ae6fad7d",
    "integrals-raised-with-counterexamples": (
        "6c35cc0c918a9b877bf57a8f963a249c59e308d7efadc322f142c35f356a1694"
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
