"""Determinism and tracing-transparency check of the traced runs.

    python3 perfbench/check.py [--workload NAME] [--seed N]

For each workload it makes two traced runs with the same seed, each a fresh
process.  Every work count in layers.DETERMINISTIC_COUNTS must repeat exactly
across them; a count that differs is an error.  Each run already fails
(``correct`` false) when a traced pass's stdout digests differ from the
untraced pass's.  The tracing overhead (traced minus untraced wall time) of
each run is printed.  Run it from the repository root; exit code 1 on any
error.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """One traced run and the header of its trace file, read before the next
    run of the same workload and seed overwrites it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"check: {' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join("perfbench", "out", f"trace-{workload}-seed{seed}.jsonl.gz")
    with gzip.open(path, "rt") as fh:
        header = json.loads(fh.readline())
    return result, header


def main() -> int:
    sys.path.insert(0, HERE)
    import layers
    import workloads

    parser = argparse.ArgumentParser(prog="perfbench/check.py")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    errors = 0
    for name in [args.workload] if args.workload else sorted(workloads.WORKLOADS):
        runs = [traced_run(name, args.seed) for _ in range(2)]
        for result, _header in runs:
            if not result["correct"]:
                print(f"{name}: a traced run is not correct (see its stderr)")
                errors += 1
        counts = [header["passes"][0] for _result, header in runs]
        for metric in layers.DETERMINISTIC_COUNTS:
            a, b = counts[0][metric], counts[1][metric]
            status = "ok" if a == b else "DIFFERS"
            errors += a != b
            print(f"{name:>10} {metric:<30} {a:>12} {b:>12} {status}")
        for result, _header in runs:
            overhead = result["metrics"]["trace.overhead_s"]["value"]
            print(f"{name:>10} trace.overhead_s {overhead:.3f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
