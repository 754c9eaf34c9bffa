#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and inter-quartile spread (as a share of the median) next to its
bound in BENCHMARK.json.

    python3 bench/spread.py --workload cli --runs 10 [--first-seed 1]

A spread above a third of the bound is flagged ``WIDE``; above the bound,
``FAIL``.  The per-run results are saved as JSON with ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import relative_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)

    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = relative_spread(values)
        flag = "FAIL" if spread > m["bound"] else \
            "WIDE" if spread > m["bound"] / 3 else "ok"
        print(f"{m['name']:14s} median {statistics.median(values):.5g} "
              f"{m['unit']}  spread {spread:.4f}  bound {m['bound']}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
