"""Layered benchmark for `qb verify` and the deep exact kernels.

Usage, from the root of a checkout (it needs src/qbernstein):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load: a closed loop with one client.  Each op runs in a fresh child process
(perfbench/child.py), one at a time, so every op pays interpreter start,
imports and cold module caches, as a `qb` user does.

Workloads (inputs come from --seed only; see inputs.py):
  verify-default  `qb verify --suite all --include-printed-counterexamples`,
                  the run every user and CI pays; touches every verify
                  layer lightly.
  verify-raised   the same at --nmax 16 --kmax 4 --smax 3 over the 5
                  default q plus 5 seeded rationals; bernstein (UPoly mul
                  and compose) and the per-q suites dominate.  Not listed in
                  BENCHMARK.json: at about 2 s per op a run holds too few
                  ops for its median to hold still on a shared 2-core host.
  kernels-deep    library calls beyond the verifier's caps: a cold
                  euler_table(q, 110), degree-64 basis reflections and one
                  product, fermionic_sum(6, 4, 3, 7).  No CLI, report or
                  stirling work.

Every op's output is checked; a wrong answer counts as a failed op and is
never retried or dropped.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 untraced and traced ops alternate and it
carries the per-layer metrics.  Machine and input facts, a summary and the
per-op records go to stdout and to .perfbench/ in the checkout; the traced
run's spans go to .perfbench/spans-<workload>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, kernel_jobs, verify_argv, verify_config  # noqa: E402
from tracer import LAYERS  # noqa: E402

OUT_DIR = ".perfbench"
# Time left after --seconds for the op in flight to end; keeps a run
# inside 180 s even when a child hangs.
GRACE_S = 100
TAIL_BEYOND = 10
# The suite split runs in its own process, so host speed drift between two
# processes enters the time comparison; 20 % tells a missing layer from that.
ACCOUNTED_TOLERANCE = 0.2
SUITES = ("bernstein", "euler", "integrals", "stirling")

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.{key}": unit for layer in LAYERS for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    **{f"verify.suite.{suite}.busy_s": "s" for suite in SUITES},
    "verify.checks": "count",
    "upoly.mul.calls": "count",
    "upoly.mul.busy_s": "s",
    "upoly.compose.busy_s": "s",
    "euler.table.calls": "count",
    "euler.table.busy_s": "s",
    "euler.table.max_bits": "bits",
    "euler.fermionic.busy_s": "s",
    "integrals.fermionic_basis.busy_s": "s",
    "fractions.ops": "count",
    "fractions.self_s": "s",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
    "trace.accounted_fraction_ops": "ratio",
}


# -- statistics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 20 samples
    that percentile would fall below the median; the upper median is used
    then, and the short count of samples beyond it is reported as it is.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n // 2 + 1
    return xs[rank - 1], 100.0 * rank / n, n - rank


# -- ops --------------------------------------------------------------------------


@dataclass
class Op:
    index: int
    kind: str
    traced: bool
    payload: dict
    failure: str | None = None
    record: dict = field(default_factory=dict)
    cycle_s: float = 0.0  # spawn to judged, in the parent

    @property
    def failed(self) -> bool:
        return self.failure is not None


def verify_failure(rc: int, stdout: str, report: bytes | None, reference: bytes | None) -> str | None:
    """Why a `qb verify` op failed, or None when its output is right."""
    if rc != 0:
        return f"exit code {rc}"
    if "result: PASS" not in stdout.splitlines():
        return "no 'result: PASS' line"
    if report is None:
        return "no report written"
    try:
        summary = json.loads(report)["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if summary["failed"] > 0:
        return f"{summary['failed']} failed checks"
    if summary["counterexamples"] == 0:
        return "no printed counterexamples evaluated"
    if summary["counterexamples_unexpectedly_passing"] > 0:
        return f"{summary['counterexamples_unexpectedly_passing']} counterexamples pass unexpectedly"
    if reference is not None and report != reference:
        return "report bytes differ from the run's first report"
    return None


class Run:
    """One benchmark run: spawns ops, judges them and keeps their records."""

    def __init__(self, root: Path, workload: str, seed: int, hard_deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.hard_deadline = hard_deadline
        self.out = root / OUT_DIR
        self.tmp = self.out / "tmp"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.ops: list[Op] = []
        self.reference: bytes | None = None
        self.report_path = self.tmp / "report.json"
        deep = workload == "kernels-deep"
        self.argv = None if deep else verify_argv(workload, seed, str(self.report_path.relative_to(root)))
        self.jobs = kernel_jobs(seed) if deep else None
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}

    def _spawn(self, op: Op):
        spec = {
            "kind": op.kind,
            "trace": op.traced,
            "op": op.index,
            "src": str(self.root / "src"),
            "record": str(self.tmp / "record.json"),
            "spans": str(self.tmp / f"spans-{op.index:05d}.jsonl.gz"),
            **op.payload,
        }
        Path(spec["record"]).unlink(missing_ok=True)
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            op.failure = "no time left to run the op"
            return None
        spec["spawn_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, env=self.env, cwd=self.root,
            )
        except subprocess.TimeoutExpired:
            op.failure = f"timed out after {timeout:.0f} s"
            return None
        try:
            op.record = json.loads(Path(spec["record"]).read_text())
        except (OSError, ValueError):
            err = proc.stderr.strip().splitlines()
            op.failure = f"exit code {proc.returncode}, no record; stderr: {err[-1] if err else ''}"
        return proc

    def run(self, kind: str, traced: bool, payload: dict) -> Op:
        op = Op(len(self.ops), kind, traced, payload)
        self.ops.append(op)
        start = time.monotonic()
        self._judge(op, self._spawn(op))
        op.cycle_s = time.monotonic() - start
        return op

    def _judge(self, op: Op, proc) -> None:
        if op.failed:
            return
        if op.kind == "verify":
            report = self.report_path.read_bytes() if self.report_path.exists() else None
            op.failure = verify_failure(proc.returncode, proc.stdout, report, self.reference)
            if op.failure is None and self.reference is None:
                self.reference = report
        elif proc.returncode != 0:
            op.failure = f"exit code {proc.returncode}"
        elif op.record.get("failures"):
            op.failure = "; ".join(op.record["failures"])

    def op(self, traced: bool) -> Op:
        """One op of this run's workload."""
        if self.argv is not None:
            self.report_path.unlink(missing_ok=True)
            return self.run("verify", traced, {"argv": self.argv})
        return self.run("kernels", traced, {"job": next(self.jobs)})

    def suites(self) -> Op:
        """The four suites through run_verify_suite in one traced process."""
        return self.run("suites", True, {"config": verify_config(self.workload, self.seed)})

    def finish_spans(self) -> Path | None:
        """Join the traced ops' span files into one and drop the parts."""
        parts = sorted(self.tmp.glob("spans-*.jsonl.gz"))
        if not parts:
            return None
        target = self.out / f"spans-{self.workload}.jsonl.gz"
        with open(target, "wb") as out:
            for part in parts:  # concatenated gzip members form one gzip stream
                out.write(part.read_bytes())
                part.unlink()
        return target


# -- metrics --------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def outcome(ops: list[Op]) -> dict:
    """Attempted and failed op counts; a run is correct when no op failed."""
    failed = sum(op.failed for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed}


def end_to_end(ops: list[Op], wall_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes printed beside them."""
    done = [op for op in ops if not op.failed]
    failed = outcome(ops)["failed"]
    timed = [op for op in ops if "op_s" in op.record]
    op_s = [op.record["op_s"] for op in (done or timed)]
    value, pct, beyond = tail(op_s) if op_s else (0.0, 0.0, 0)
    metrics = {
        "op_s.p50": _median(op_s),
        "op_s.tail": value,
        "setup_s": _median(op.record["setup_s"] for op in timed),
        # Completed share over the median cycle (spawn, set-up, op, checks):
        # unlike ops/wall, one slow burst on a shared box does not swing it.
        "ops_per_s": len(done) / len(ops) / _median(op.cycle_s for op in ops),
        "peak_rss_mb": _median(op.record["peak_rss_mb"] for op in timed),
    }
    notes = {
        "op_s.tail": f"p{pct:.1f} of {len(op_s)} ops, {beyond} beyond it",
        "ops_per_s": f"{len(done) / wall_s:.4g} completed ops per wall-clock second",
        "fail_ratio": f"{failed / len(ops):g} ratio ({failed}/{len(ops)} ops failed)",
    }
    return metrics, notes


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run: medians over the traced ops."""
    plain = [op for op in run.ops if not op.traced and not op.failed]
    traced = [op for op in run.ops if op.traced and op.kind != "suites" and not op.failed]
    suites = [op for op in run.ops if op.kind == "suites" and not op.failed]
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}

    def add(name, value):
        values[name].append(value)

    for op in traced:
        layers, counters = op.record["layers"], op.record["counters"]
        for layer in LAYERS:
            for key in ("calls", "busy_s", "self_s"):
                add(f"{layer}.{key}", layers[f"{layer}.{key}"])
        calls, ns = counters["fn_calls"], counters["fn_ns"]
        add("upoly.mul.calls", calls.get("upoly.mul", 0))
        add("upoly.mul.busy_s", ns.get("upoly.mul", 0) / 1e9)
        add("upoly.compose.busy_s", ns.get("upoly.compose", 0) / 1e9)
        add("euler.table.calls", calls.get("euler.table", 0))
        add("euler.table.busy_s", ns.get("euler.table", 0) / 1e9)
        add("euler.table.max_bits", counters["max_bits"])
        add("euler.fermionic.busy_s", ns.get("euler.fermionic", 0) / 1e9)
        add("integrals.fermionic_basis.busy_s", ns.get("integrals.fermionic_basis", 0) / 1e9)
        add("fractions.ops", counters["fraction_ops"])
        add("fractions.self_s", counters["fraction_ns"] / 1e9)
        if op.kind == "kernels":
            add("trace.accounted", layers["root_busy_s"] / op.record["op_s"])
    for op in suites:
        spans = op.record["layers"]["bench_spans_s"]
        for suite in SUITES:
            add(f"verify.suite.{suite}.busy_s", spans[f"verify.suite.{suite}"])
    # The four suites plus the CLI's own time should account for a traced
    # `qb verify` op; pair each traced CLI op with the suites op after it.
    by_index = {op.index: op for op in traced}
    for suites_op in suites:
        cli_op = by_index.get(suites_op.index - 1)
        if cli_op is not None:
            suite_s = sum(suites_op.record["layers"]["bench_spans_s"].values())
            add("trace.accounted", (suite_s + cli_op.record["layers"]["cli.self_s"]) / cli_op.record["op_s"])
            # The same comparison in work, which host speed cannot blur.
            ops_ratio = suites_op.record["counters"]["fraction_ops"] / cli_op.record["counters"]["fraction_ops"]
            add("trace.accounted_fraction_ops", ops_ratio)
    if run.reference is not None:
        add("verify.checks", json.loads(run.reference)["summary"]["checks"])
    plain_p50 = _median(op.record["op_s"] for op in plain)
    traced_p50 = _median(op.record["op_s"] for op in traced)
    if plain_p50 > 0:
        add("trace.overhead", traced_p50 / plain_p50)
    metrics = {name: _median(vs) for name, vs in values.items()}
    accounted = metrics["trace.accounted"]
    verdict = "consistent" if abs(accounted - 1) <= ACCOUNTED_TOLERANCE else "INCONSISTENT"
    notes = {
        "trace.accounted": f"{verdict}: spans must cover the traced op within {ACCOUNTED_TOLERANCE:.0%}",
        "traced ops": f"{len(traced)} traced, {len(plain)} untraced, {len(suites)} suite splits",
    }
    return metrics, notes


# -- facts and output -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def facts(run: Run, args) -> dict:
    inputs = {"argv": run.argv} if run.argv is not None else {}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **inputs,
        "ops": [
            {"op": op.index, "kind": op.kind, "traced": op.traced, **op.payload}
            for op in run.ops
        ],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered qbernstein benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src" / "qbernstein"
    if not (src / "cli.py").is_file():
        print(f"error: {src} not found; run from the root of a qbernstein checkout", file=sys.stderr)
        return 2
    # Build step: byte-compile once so no op pays for compiling the sources.
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    start = time.monotonic()
    run = Run(root, args.workload, args.seed, start + args.seconds + GRACE_S)
    deadline = start + args.seconds
    while True:
        run.op(traced=False)
        if args.trace:
            run.op(traced=True)
            if run.argv is not None:
                run.suites()
        if time.monotonic() >= deadline:
            break
    wall_s = time.monotonic() - start

    if args.trace:
        metrics, notes = per_layer(run)
        units = PER_LAYER_UNITS
        spans = run.finish_spans()
        notes["spans"] = str(spans.relative_to(root)) if spans else "none"
    else:
        metrics, notes = end_to_end(run.ops, wall_s)
        units = END_TO_END_UNITS
    for op in run.ops:
        if op.failed:
            print(f"failed op {op.index} ({op.kind}): {op.failure}", file=sys.stderr)

    info = facts(run, args)
    record = {
        "facts": info,
        "metrics": metrics,
        "notes": notes,
        "ops": [
            {"op": op.index, "kind": op.kind, "traced": op.traced, "failure": op.failure, "cycle_s": op.cycle_s,
             **{k: v for k, v in op.record.items() if k not in ("layers", "counters")}}
            for op in run.ops
        ],
    }
    (run.out / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run.tmp, ignore_errors=True)

    print("facts " + json.dumps(info))
    print(f"workload {args.workload}, seed {args.seed}, {len(run.ops)} ops in {wall_s:.1f} s")
    for name, value in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:<34} {value:.6g} {units[name]}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:<34} {note}")
    print(json.dumps({
        **outcome(run.ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
