"""One benchmark op in a fresh process.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the op kind ("verify", "suites" or "kernels"), its argv or
job, the checkout's src directory, the parent's CLOCK_MONOTONIC reading taken
just before the spawn, whether to trace, and the files to write.  The child
imports qbernstein.cli (set-up), runs the op (timed), records its peak RSS,
checks kernel results against their oracles outside the timed interval, and
writes a JSON record.  A `qb verify` op runs under interpreter defaults:
nothing here catches its exceptions or lifts the int-to-str digit limit.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def _kernels_job(job):
    """The timed part of a kernels-deep op; returns what the checks need."""
    from qbernstein import bernstein, euler
    from qbernstein.upoly import UPoly

    q = Fraction(job["euler"]["q"])
    table = euler.euler_table(q, job["euler"]["n"])
    n, step = job["basis"]["n"], job["basis"]["step"]
    one_minus_u = 1 - UPoly.monomial(1)
    reflected = [
        (k, bernstein.basis_upoly((k, n)).compose(one_minus_u))
        for k in range(0, n + 1, step)
    ]
    a, b = (bernstein.basis_upoly((k, n)) for k in job["product"])
    product = a * b
    f = job["fermionic"]
    fsum = euler.fermionic_sum(f["n"], Fraction(f["q"]), f["p"], f["level"])
    return table, reflected, (a, b, product), fsum


def _kernels_check(job, table, reflected, factors, fsum) -> list[str]:
    """Oracle checks for a kernels-deep op; returns the failures found."""
    from qbernstein import bernstein, euler
    from qbernstein.kernel import padic_valuation

    failures = []
    q = Fraction(job["euler"]["q"])
    if len(table) != job["euler"]["n"] + 1:
        failures.append("euler_table returned the wrong length")
    bad = [n for n in range(len(table)) if table[n] != euler.euler_closed(n, q)]
    if bad:
        failures.append(f"euler_table differs from euler_closed at n={bad[:5]}")
    n = job["basis"]["n"]
    for k, poly in reflected:
        if poly != bernstein.basis_upoly((n - k, n)):
            failures.append(f"B_({k},{n})(1-u) != B_({n - k},{n})(u)")
    a, b, product = factors
    if product.degree != a.degree + b.degree:
        failures.append("product has the wrong degree")
    for u in (Fraction(1, 3), Fraction(-7, 5)):
        if product(u) != a(u) * b(u):
            failures.append(f"product disagrees with pointwise product at u={u}")
    f = job["fermionic"]
    limit = euler.euler_number(f["n"], Fraction(f["q"]))
    v = padic_valuation(fsum - limit, f["p"])
    if v < f["level"]:
        failures.append(f"v_{f['p']}(S_L - E_n) = {v} < L = {f['level']}")
    return failures


def _run(spec, tracer):
    """Run the op between two clock reads; returns (exit code, seconds, outputs)."""
    if spec["kind"] == "verify":
        import qbernstein.cli

        t0 = time.perf_counter_ns()
        rc = qbernstein.cli.main(spec["argv"])
        sys.stdout.flush()
        return rc, (time.perf_counter_ns() - t0) / 1e9, None
    if spec["kind"] == "suites":
        from qbernstein import verify

        cfg = dict(spec["config"])
        if "qs" in cfg:
            cfg["qs"] = tuple(Fraction(q) for q in cfg["qs"])
        # The same settings as the verify op, whose argv always carries
        # --include-printed-counterexamples.
        configs = [
            verify.VerifyConfig(suite=suite, include_printed_counterexamples=True, **cfg)
            for suite in verify.SUITES
        ]
        t0 = time.perf_counter_ns()
        reports = [
            tracer.call(f"verify.suite.{c.suite}", verify.run_verify_suite, c) for c in configs
        ]
        seconds = (time.perf_counter_ns() - t0) / 1e9
        return (0 if all(r.ok for r in reports) else 1), seconds, None
    t0 = time.perf_counter_ns()
    outputs = _kernels_job(spec["job"])
    return 0, (time.perf_counter_ns() - t0) / 1e9, outputs


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import qbernstein.cli  # noqa: F401  (set-up: the whole package loads here)

    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["op"])
        tracer.install()
    # An exception here ends the process with a traceback and exit code 1,
    # before any record is written; the parent counts that op as failed.
    rc, seconds, outputs = _run(spec, tracer)
    record = {
        "rc": rc,
        "setup_s": (ready - spec["spawn_ns"]) / 1e9,
        "op_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # Before the checks below, which call the traced layers too.
        record["counters"] = tracer.counters()
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(spec["spans"])
    if spec["kind"] == "kernels":
        record["failures"] = _kernels_check(spec["job"], *outputs)
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
