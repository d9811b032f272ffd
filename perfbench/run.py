"""hdw-forge benchmark: check-matrix, field-solve and cli-suite.

Run from the repository root, against the sources in src/:

    python3 perfbench/run.py --workload check-matrix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (one client, closed loop: the next op starts when the last ends):

  check-matrix  in process: derive, run the check battery and reject a
                tampered field, for seeded inputs on eight (m, n) charts.
  field-solve   in process: `solve` the wave model on an 800-point grid,
                then `compare` against the grid it wrote.
  cli-suite     one fresh `hdw-forge` child process per op: every command
                on the three bundled models, plus one exit-1 and one exit-2
                case.

A run times a fixed number of whole units, so that every run of a workload
times the same number of ops and its percentiles mean the same thing from
run to run: at --seconds 30, 4 rounds of 8 charts (32 ops, about 40 s),
3 field solves (about 30 s) and 2 suites of 12 commands (24 ops, about
20 s) at the commit that defined the benchmark.  Other --seconds values
scale these counts.  No op starts after 3 x --seconds of timed section.

Which layer metric should move which end-to-end metric (op_s.*, ops_per_s),
and where it should not:
  hdw.curvature.self_s, symbolic.simplify.*, forms.*   check-matrix, not field-solve
  solver.solve_field_1p1.self_s, cell_updates_per_s    field-solve, not check-matrix
  cli.write_grid_csv.s, cli.read_grid_csv.s            field-solve (also peak_rss_mb)
  solver.solve_ode.s, sympy.lambdify.s,                cli-suite (also setup_s),
    modelfile.parse_model.s, legendre.*                  not field-solve

Every op and set-up sample is bracketed by a short host-speed probe, and
the timing metrics (setup_s, op_s.*, ops_per_s) are computed from times
scaled by the run's typical probe to a reference host speed (hostspeed.py),
because the shared host's speed drifts by more than the metrics' bounds
between runs.  The raw wall times are printed beside them and kept in the
record.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 a traced run reports per-layer metrics.  The traced run always
runs one unit traced and its untraced twin interleaved, so that exact
counts repeat and the tracing overhead is measured in the same run.
Earlier lines give the environment, the input digest, sample counts and the
full per-layer table; the record and the spans are also written under
.perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

import cli_suite  # noqa: E402  (none of these modules imports the package)
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("check-matrix", "field-solve", "cli-suite")
UNITS_PER_30S = {"check-matrix": 4, "field-solve": 3, "cli-suite": 2}
SETUP_SAMPLES = {"check-matrix": 3, "field-solve": 3, "cli-suite": 5}
RUN_LIMIT_S = 170.0
REQUIRED = ("src/hdw_forge/cli.py", "models/oscillator.hdw", "models/wave.hdw",
            "models/degenerate.hdw")

END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

# functions each workload must call; zero calls in a traced run means a
# binding the tracer missed
_CHECK = ["symbolic.simplify", "forms.interior_product", "forms.hamilton_cartan",
          "forms.CoordForm.is_zero", "forms.CoordForm.d", "hdw.derive_restricted",
          "hdw.derive_extended", "hdw.standard_checks", "hdw.residual_restricted",
          "hdw.residual_extended", "hdw.transversality", "hdw.tangency_check",
          "hdw.connection_equation_check", "hdw.curvature", "legendre.legendre_maps",
          "legendre.hamiltonian_from_lagrangian", "legendre.euler_lagrange",
          "legendre.hdw_momentum_elimination"]
_FIELD = ["symbolic.simplify", "hdw.derive_restricted", "legendre.legendre_maps",
          "legendre.hamiltonian_from_lagrangian", "solver.solve_field_1p1",
          "solver.discrete_field_energy", "solver.max_discrepancy", "sympy.lambdify",
          "modelfile.parse_model", "exprparse.parse_expression", "cli.cmd_solve",
          "cli.cmd_compare", "cli.write_grid_csv", "cli.read_grid_csv"]
MUST_CALL = {"check-matrix": _CHECK, "field-solve": _FIELD,
             "cli-suite": list(tracing.LAYER_SPANS)}


class Failure(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "python": sys.version.split()[0],
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Children:
    """Starts children one at a time and reaps them with their rusage."""

    def __init__(self, deadline: float, log_path: Path):
        self.deadline = deadline
        self.env = child_env()
        self.log = open(log_path, "wb")

    def close(self):
        self.log.close()

    def start(self, argv, stdout=subprocess.DEVNULL):
        return subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=self.log)

    def wait(self, proc) -> tuple[int, float]:
        """Exit status and peak RSS in MB; kills the child at the deadline."""
        timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.stdout is not None:
            proc.stdout.close()
        if time.perf_counter() >= self.deadline:
            raise Failure(f"child {proc.args[1:3]} killed at the {RUN_LIMIT_S:.0f} s limit")
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, argv) -> tuple[float, int, float]:
        t0 = time.perf_counter()
        proc = self.start(argv)
        status, rss = self.wait(proc)
        return time.perf_counter() - t0, status, rss


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def units_for(workload, seconds) -> int:
    return max(1, round(UNITS_PER_30S[workload] * seconds / 30))


def run_inprocess(workload, seed, seconds, trace, work, kids) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--units", str(units_for(workload, seconds)),
            "--trace", str(trace), "--deadline", str(3.0 * seconds),
            "--workdir", str(work), "--result", str(work / "result.json")]

    def start_worker(extra):
        t0 = time.perf_counter()
        proc = kids.start(argv + extra, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        return proc, time.perf_counter() - t0, line.strip() == b"ready"

    setups, setup_probes = [], []   # a probe before each set-up sample
    for _ in range(0 if trace else SETUP_SAMPLES[workload] - 1):
        setup_probes.append(hostspeed.probe())
        proc, setup, ready = start_worker(["--setup-only"])
        status, _ = kids.wait(proc)
        if not ready or status != 0:
            raise Failure(f"{workload} set-up exited {status}; see {kids.log.name}")
        setups.append(setup)
    setup_probes.append(hostspeed.probe())
    proc, setup, ready = start_worker([])
    status, rss = kids.wait(proc)
    if not ready or status != 0:
        raise Failure(f"{workload} worker exited {status}; see {kids.log.name}")
    setups.append(setup)
    with open(work / "result.json", encoding="utf-8") as fh:
        res = json.load(fh)
    res["setups"] = setups
    res["setup_probes"] = setup_probes
    res["peak_rss_mb"] = rss
    res["digest"] = _digest(res.pop("inputs"))
    res["failures"] = res["warmup_failures"] + res["failures"]
    res["failed"] += bool(res["warmup_failures"])
    return res


def run_cli_suite(seed, seconds, trace, work, kids) -> dict:
    setups, setup_probes = [], []   # a probe before each set-up sample
    for _ in range(0 if trace else SETUP_SAMPLES["cli-suite"]):
        setup_probes.append(hostspeed.probe())
        secs, status, _ = kids.run([sys.executable, "-c", "import hdw_forge.cli"])
        if status != 0:
            raise Failure(f"import hdw_forge.cli exited {status}; see {kids.log.name}")
        setups.append(secs)
    n_suites = 2 if trace else units_for("cli-suite", seconds)
    suites = []
    for number in range(n_suites):
        out = work / f"suite{number}"
        out.mkdir()
        suites.append((str(out), cli_suite.suite(seed, number, str(out))))
    digest_src = [cli_suite.fingerprint(ops, out) for out, ops in suites]
    if trace:   # suite 0 traced, interleaved op by op with suite 1 untraced
        order = [(s, i) for i in range(len(suites[0][1])) for s in (0, 1)]
    else:
        order = [(s, i) for s in range(n_suites) for i in range(len(suites[s][1]))]
    times, traced, failures, payloads = [], [], [], []
    failed, peak = 0, 0.0
    probes = [hostspeed.probe()]
    start = time.perf_counter()
    for k, (s, i) in enumerate(order):
        if time.perf_counter() - start > 3.0 * seconds:
            break
        out, ops = suites[s]
        name, argv, expected, check = ops[i]
        is_traced = bool(trace) and s == 0
        prefix = [sys.executable, str(HERE / "entry.py")]
        sidecar = work / f"op{k}.trace.json"
        if is_traced:
            prefix += ["--sidecar", str(sidecar), "--op", str(k)]
        secs, status, rss = kids.run(prefix + ["--"] + argv)
        fails = cli_suite.verify(name, status, expected, check, out)
        if is_traced:
            with open(sidecar, encoding="utf-8") as fh:
                payloads.append(json.load(fh))
        probes.append(hostspeed.probe())
        times.append(secs)
        traced.append(is_traced)
        failed += bool(fails)
        failures += fails
        peak = max(peak, rss)
    return {"op_s": times, "probe_s": probes, "traced": traced, "failed": failed,
            "failures": failures, "setups": setups, "setup_probes": setup_probes,
            "peak_rss_mb": peak,
            "digest": _digest(digest_src),
            "trace": tracing.merge(payloads) if trace else None}


def _digest(parts) -> str:
    """Short SHA-256 over the inputs of a run, so two runs can show they ran
    the same ops."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, label): the highest percentile with >= 10 samples beyond it,
    or the maximum when there are fewer than 11 samples."""
    s = sorted(values)
    n = len(s)
    if n >= 11:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    return s[-1], "max"


def calibrated(res) -> tuple[list, list, float]:
    """Op times and set-up times scaled to the reference host speed by the
    run's probes (see hostspeed.py), and the typical probe."""
    probes = res["probe_s"] + res["setup_probes"]
    factor = hostspeed.calibration(probes)
    return ([t * factor for t in res["op_s"]], [t * factor for t in res["setups"]],
            hostspeed.typical_probe(probes))


def timing_values(times, setups) -> dict:
    n = len(times)
    return {"setup_s": statistics.median(setups), "op_s.p50": statistics.median(times),
            "op_s.tail": tail(times)[0], "ops_per_s": n / sum(times)}


def end_to_end(res) -> tuple[dict, list, dict]:
    """Metrics from calibrated times, report lines, and the same timing
    metrics from raw wall times."""
    times, setups, probe = calibrated(res)
    n = len(times)
    values = timing_values(times, setups)
    values["peak_rss_mb"] = res["peak_rss_mb"]
    raw = timing_values(res["op_s"], res["setups"])
    t_label = tail(times)[1]
    tail_note = (f"{t_label}, 10 of {n} samples beyond it" if t_label != "max"
                 else f"max of {n} samples (fewer than 11)")
    notes = [
        f"times are calibrated to a host whose probe reads {hostspeed.REF_PROBE_S} s; "
        f"trimmed mean probe {probe:.4f} s over "
        f"{len(res['probe_s']) + len(res['setup_probes'])} probes; raw wall times in brackets",
        f"setup_s      {values['setup_s']:.4f} s     [{raw['setup_s']:.4f}]  median of "
        f"{len(setups)} set-ups [" + ", ".join(f"{v:.3f}" for v in setups) + "]",
        f"op_s.p50     {values['op_s.p50']:.4f} s     [{raw['op_s.p50']:.4f}]  n={n}",
        f"op_s.tail    {values['op_s.tail']:.4f} s     [{raw['op_s.tail']:.4f}]  {tail_note}",
        f"ops_per_s    {values['ops_per_s']:.4f} 1/s   [{raw['ops_per_s']:.4f}]  "
        f"{n} ops in {sum(times):.2f} s calibrated, {sum(res['op_s']):.2f} s wall",
        f"fail_ratio   {res['failed'] / n:.4f}         {res['failed']} of {n} ops failed",
        f"peak_rss_mb  {res['peak_rss_mb']:.1f} MB",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, notes, raw


PER_LAYER_FIELDS = (("calls", "count"), ("s", "s"), ("self_s", "s"))


def per_layer(res, workload) -> tuple[dict, list, list]:
    """Per-layer metrics, table lines, and the must-call names never called."""
    payload = res["trace"]
    traced_ops = {op for *_, op in payload["spans"]}
    agg = tracing.aggregate(payload)
    c = payload["counters"]
    metrics = {}
    for name in tracing.LAYER_SPANS:
        row = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field, unit in PER_LAYER_FIELDS:
            metrics[f"{name}.{field}"] = {"value": row[field], "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0
    simplify_calls = agg.get("symbolic.simplify", {}).get("calls", 0)
    extra = {
        "symbolic.simplify.denominator_ratio":
            (ratio(c["symbolic.simplify.with_denominator"], simplify_calls), "ratio"),
        "hdw.coeff_ops": (c["hdw.coeff_ops"], "count"),
        "hdw.flat_verdicts": (c["hdw.flat_verdicts"], "count"),
        "solver.rk4_steps": (c["solver.rk4_steps"], "count"),
        "solver.cell_updates_per_s":
            (ratio(c["solver.cells"], agg.get("solver.solve_field_1p1", {}).get("s", 0.0)), "1/s"),
    }
    for io in ("write_grid_csv", "read_grid_csv"):
        nbytes = c[f"cli.{io}.bytes"]
        extra[f"cli.{io}.bytes"] = (nbytes, "B")
        extra[f"cli.{io}.mb_per_s"] = (
            ratio(nbytes / 1e6, agg.get(f"cli.{io}", {}).get("s", 0.0)), "MB/s")
    traced = [t for t, f in zip(res["op_s"], res["traced"]) if f] or [0.0]
    untraced = [t for t, f in zip(res["op_s"], res["traced"]) if not f] or [0.0]
    overhead = ratio(statistics.median(traced), statistics.median(untraced))
    extra["trace.overhead_ratio"] = (overhead, "ratio")
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}

    lines = [f"traced ops {len(traced)} (ids {sorted(traced_ops)}), untraced twins {len(untraced)}",
             f"tracing overhead: traced op_s.p50 {statistics.median(traced):.4f} s / "
             f"untraced {statistics.median(untraced):.4f} s = {overhead:.3f}",
             f"{'span':44s} {'calls':>8s} {'s':>10s} {'self_s':>10s}"]
    for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:44s} {row['calls']:8d} {row['s']:10.4f} {row['self_s']:10.4f}")
    lines += [f"{name:44s} {value:.6g} {unit}" for name, (value, unit) in extra.items()]
    missing = [n for n in MUST_CALL[workload] if agg.get(n, {}).get("calls", 0) == 0]
    return metrics, lines, missing


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_one(workload, seed, seconds, trace, deadline) -> dict:
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kids = Children(deadline, OUT / f"children-{workload}.log")
    probe_start = hostspeed.long_probe()
    try:
        if workload == "cli-suite":
            res = run_cli_suite(seed, seconds, trace, work, kids)
        else:
            res = run_inprocess(workload, seed, seconds, trace, work, kids)
    finally:
        kids.close()
        shutil.rmtree(work, ignore_errors=True)
    probe_end = hostspeed.long_probe()
    if not res["op_s"]:
        raise Failure(f"{workload}: no op completed")

    env = environment()
    env["host_probe_s"] = {"start": probe_start, "end": probe_end}
    lines = [f"== {workload}  seed={seed}  seconds={seconds}  trace={trace}",
             "env " + json.dumps(env, sort_keys=True),
             f"inputs digest {res['digest']} over {len(res['op_s'])} ops"]
    missing, raw = [], None
    if trace:
        metrics, more, missing = per_layer(res, workload)
        if missing:
            more.append("ERROR: traced functions with zero calls: " + ", ".join(missing))
    else:
        metrics, more, raw = end_to_end(res)
    lines += more
    lines += [f"FAILED {msg}" for msg in res["failures"][:20]]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "digest": res["digest"], "op_s": res["op_s"],
              "probe_s": res["probe_s"], "traced": res["traced"], "setups": res["setups"],
              "setup_probes": res["setup_probes"], "failures": res["failures"],
              "metrics": metrics, "raw_timing": raw}
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(OUT / f"record-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(res["trace"], fh, separators=(",", ":"))
    print("\n".join(lines), flush=True)
    return {"correct": res["failed"] == 0 and not missing, "attempted": len(res["op_s"]),
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an hdw-forge checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    OUT.mkdir(exist_ok=True)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, deadline)
                   for w in names}
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
