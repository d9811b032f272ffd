"""Check that two traced runs on one seed give identical exact counts.

    python3 perfbench/repeat_check.py --workload check-matrix --seed 1

Runs `run.py --trace 1` twice and compares the input digest and every exact
count: `*.calls`, `hdw.coeff_ops`, `hdw.flat_verdicts`, `solver.rk4_steps`
and `cli.*.bytes`.  Exits 1, listing the differences, if any differ or if
either run is not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("hdw.coeff_ops", "hdw.flat_verdicts", "solver.rk4_steps")


def traced_run(workload, seed):
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--seed", str(seed), "--trace", "1"],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    digest = next(line.split()[2] for line in out if line.startswith("inputs digest"))
    result = json.loads(out[-1])
    exact = {k: v["value"] for k, v in result["metrics"].items()
             if k.endswith((".calls", ".bytes")) or k in EXACT}
    exact["correct"] = result["correct"]
    return digest, exact


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    (d1, e1), (d2, e2) = traced_run(args.workload, args.seed), traced_run(args.workload, args.seed)
    diffs = [f"digest {d1} != {d2}"] if d1 != d2 else []
    diffs += [f"{k}: {e1[k]} != {e2[k]}" for k in sorted(e1) if e1[k] != e2.get(k)]
    diffs += [f"run {i} is not correct" for i, e in ((1, e1), (2, e2)) if not e["correct"]]
    print(f"{args.workload} seed {args.seed}: digest {d1}, {len(e1) - 1} exact counts, "
          f"{len(diffs)} differ")
    for line in diffs:
        print("  " + line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
