"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload factor --seeds 1-10 [--trace 0]

For each metric it prints the median of the runs' values and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median, next to the metric's bound from BENCHMARK.json.  Run
it from the repository root.  Runs are serial; each is a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)
    print(f"{'metric':<32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        bound = bounds.get(name)
        print(f"{name:<32} {statistics.median(values):>12.6g} {spread(values):>8.4f} "
              f"{bound if bound is not None else '':>6}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
