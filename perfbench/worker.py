"""Worker process of the in-process workloads (check-matrix, field-solve).

    python3 perfbench/worker.py --workload W --seed N --units K --trace 0|1
                                --workdir DIR --result FILE [--setup-only]

Set-up is the import, input generation and one untimed warm-up op; the
worker then prints "ready" on stdout, so the parent can time set-up from
process start.  With --setup-only it exits there.  Otherwise it runs the
planned ops one after another (a closed loop with one client), with a
host-speed probe before the first op and after each op (and, for
field-solve, between its solve and its compare), and writes per-op times,
the probes, failures, the inputs it ran and, when tracing, the spans to
FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import hostspeed
import inputs
import inprocess
from tracer import Tracer

ROUND = len(inputs.CHARTS)


def plan(workload, units, trace):
    """(op id, slot, traced) triples.

    Untraced runs time `units` whole units: rounds of 8 charts for
    check-matrix, single ops for field-solve.  Traced runs always run the
    same ops, so that their counts repeat: one unit traced, interleaved op
    by op with its untraced twin (same slot, other coefficients), which
    gives the tracing overhead.
    """
    size = ROUND if workload == "check-matrix" else 1
    if not trace:
        return [(k, k, False) for k in range(units * size)]
    ops = []
    for k in range(size):
        ops += [(k, k, True), (size + k, k, False)]
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["check-matrix", "field-solve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--deadline", type=float, required=True,
                    help="start no op after this many seconds of timed section")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.detach()
    ops = plan(args.workload, args.units, args.trace)
    if args.workload == "check-matrix":
        work = {k: inputs.check_input(args.seed, slot, twin=k != slot)
                for k, slot, _ in ops}
        fingerprints = {k: inp.fingerprint() for k, inp in work.items()}
        _, warm_fails = inprocess.check_matrix_op(inputs.warmup_input())

        def run(k):
            return inprocess.check_matrix_op(work[k])
    else:
        capture = inprocess.GridCapture()
        fingerprints = {k: inprocess.field_solve_fingerprint() for k, _, _ in ops}
        _, warm_fails = inprocess.field_solve_op(args.workdir, capture,
                                                 grid_points=200, dt=None)

        def run(k):
            return inprocess.field_solve_op(
                args.workdir, capture, between=lambda: probes.append(hostspeed.probe()))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ran, times, traced_flags, failures, failed = [], [], [], [], 0
    probes = [hostspeed.probe()]
    start = time.perf_counter()
    for k, _, traced in ops:
        if time.perf_counter() - start > args.deadline:
            break
        ran.append(fingerprints[k])
        if traced:
            tracer.attach()
            tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            seconds, fails = run(k)
        except Exception as exc:   # an op that raises counts as failed
            seconds = time.perf_counter() - t0
            fails = [f"op {k} raised {type(exc).__name__}: {exc}"]
        finally:
            if traced:
                tracer.end_op()
                tracer.detach()
        probes.append(hostspeed.probe())
        times.append(seconds)
        traced_flags.append(traced)
        failed += bool(fails)
        failures += fails
    result = {
        "op_s": times, "probe_s": probes, "traced": traced_flags, "failed": failed,
        "failures": failures, "warmup_failures": warm_fails,
        "inputs": ran,
        "trace": tracer.payload() if tracer else None,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
