#!/usr/bin/env python3
"""Run one workload N times with distinct seeds and print the spread.

    python3 perfbench/steady.py --workload ids_scan --runs 10 [--first-seed 1]

For each end-to-end metric prints the median and the first and third
quartiles of the N values (statistics.quantiles, n=4), and the
interquartile spread as a share of the median, beside the metric's
bound in BENCHMARK.json. The bounds were set from this output
(perfbench/README.md records it). Exits nonzero if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json run_seconds)")
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = set()
    for seed in range(a.first_seed, a.first_seed + a.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"])
                   if result["failed"] else 0)
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(row), flush=True)

    print(f"\n{a.workload}: {a.runs} runs of {seconds:g} s, seeds "
          f"{a.first_seed}..{a.first_seed + a.runs - 1}")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:<18}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.3f}{m['bound']:>8.2f}")
    print(f"failed share: {sorted(shares, key=str)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
