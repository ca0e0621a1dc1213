"""Record the stdout digest of every operation any seed can generate.

    python3 perfbench/record.py [--workload NAME]

Run it from the repository root at the commit whose output is the reference
(it was run at the seed commit the benchmark was defined on).  Every decided
operation must match its known answer first; an operation that exits 2 is
recorded with the output its known answer implies (answers.expected_stdout),
so a later commit that decides it is judged against the true value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    import answers
    import run
    import workloads

    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    os.environ.pop("COLEXA_CAP", None)
    sys.path.insert(0, os.path.abspath("src"))
    import colexa.cli as cli

    path = os.path.join(HERE, "digests.json")
    table = {"digests": {}}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    bad = 0
    for name in names:
        for op in workloads.pool(name):
            res = run.run_op(cli, op.argv)
            decided, ok, why = answers.check(op, res.rc, res.stdout, res.stderr)
            stdout = res.stdout if decided else answers.expected_stdout(op)
            if not ok or stdout is None:
                print(f"record: {op.key}: {why or 'undecided without a known answer'}",
                      file=sys.stderr)
                bad += 1
                continue
            table["digests"][op.key] = hashlib.sha256(stdout.encode()).hexdigest()
            print(f"{res.seconds:8.3f}s rc={res.rc} {op.key}", file=sys.stderr)
    if bad:
        print(f"record: {bad} operations contradict their known answers; nothing written",
              file=sys.stderr)
        return 1
    current = {op.key for name in workloads.WORKLOADS for op in workloads.pool(name)}
    table["digests"] = {k: v for k, v in sorted(table["digests"].items()) if k in current}
    with open(path, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
