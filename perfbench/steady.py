"""Steadiness check: run each workload once per seed and report, for every
metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --seeds 10 [--first-seed 1] [--trace 0]
                                [--workloads group-perm,extra-planar] [--out FILE]

Run from the root of a checkout.  Each run gets the run_seconds of
BENCHMARK.json.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  f"failed={result['failed']}/{result['attempted']}",
                  f"took={time.perf_counter() - start:.1f}s", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "spread": spread, "values": values}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  > bound/3 = {bounds[name] / 3:.4f}"
            print(f"  {workload:15s} {name:28s} median {median:12.4f}  spread {spread:.4f}{flag}")
        summary[workload] = {"failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs), "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
