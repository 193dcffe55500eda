#!/usr/bin/env python3
"""Steadiness check: run each workload of BENCHMARK.json on seeds 1-10 and print the spread.

    python3 bench/steady.py

Each run lasts BENCHMARK.json's run_seconds.  For every metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, next to the metric's bound.  A
spread above a third of the bound is flagged; set-up time is flagged only
above its whole bound, since only its median is compared between runs.  It
also prints each run's share of failed operations, which must be identical
across runs.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed={seed}: outputs failed their checks")
            shares.add((result["failed"] / result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"{workload}: failed share per run {sorted(shares)}")
        if len(shares) != 1:
            steady = False
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            limit = bound if name == "setup_s" else bound / 3
            flag = "" if spread <= limit else "  TOO WIDE"
            steady = steady and not flag
            print(f"  {name:18s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  bound {bound}{flag}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
