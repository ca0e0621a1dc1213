"""colexa benchmark: time to verdict of colexa CLI operations.

    python3 perfbench/run.py --workload {enumerate,factor,gauge} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports colexa from ./src.  Each
operation is one colexa invocation: an argv list passed to
``colexa.cli.main`` in this process with stdout and stderr captured.  One
client sends the next operation when the previous one has returned (closed
loop, serial).  The seed selects the argv (see workloads.py); colexa only
ever sees argv.

An operation is correct when its exit code and verdict fields match the known
answer (answers.py) and its stdout matches the digest recorded at the seed
commit (digests.json).  An operation that exits 2 is undecided and counts as
failed.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of percent over seconds to minutes, and every operation of a
run drifts with it.  So a fixed loop of Python work (the probe) is timed
before the first operation and after each one, and each operation's time is
multiplied by PROBE_REF_S over the mean of the two probes around it: the
time the operation would take on a machine where the probe takes PROBE_REF_S.
The raw wall-clock times are printed on stderr.  Set-up time is scaled the
same way, with a bare interpreter start in place of the probe.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time in
fresh processes, then passes over the workload for about ``--seconds``.  With
``--trace 1`` it runs one untraced pass and then traced passes for the rest
of ``--seconds`` (at least one); the traced ones wrap colexa's public
functions (tracer.py) and give the per-layer metrics, and their spans are
written to ``perfbench/out`` as gzipped JSON lines.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import answers
import layers
import workloads
from tracer import Tracer, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))

PROBE_REF_S = 0.001
PROBE_LOOPS = 5000
# p90 is reported only with at least ten samples beyond it
TAIL_Q = 0.9
# end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "wall_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "decided_share": "share",
    "correct_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 15
# a bare interpreter start is the reference for set-up time, as the probe is
# for operations
START_REF_S = 0.05
SETUP_CHILD = "import sys\nsys.path.insert(0, sys.argv[1])\nimport numpy, colexa.cli\n"
BARE_CHILD = "import sys\nsys.path.insert(0, sys.argv[1])\n"


def probe() -> float:
    """Seconds for a fixed loop of integer arithmetic, tuple allocation and
    dict stores, the mix of colexa's own inner loops.  Garbage collection is
    off inside it, so a large heap left by an operation cannot slow it."""
    table = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s = (s + i * i) % 65521
            table[i & 63] = (i, s)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def percentile_reportable(q: float, n: int) -> bool:
    """Whether the q-quantile of n samples has at least ten samples beyond it."""
    return n * (1 - q) >= 10 - 1e-9


@dataclass
class OpResult:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    scale: float = 1.0  # PROBE_REF_S / probe time around the operation
    digest: str = field(init=False)
    stdout_bytes: int = field(init=False)

    def __post_init__(self):
        data = self.stdout.encode()
        self.digest = hashlib.sha256(data).hexdigest()
        self.stdout_bytes = len(data)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    def drop_output(self) -> None:
        """Forget stdout and stderr once judged; digest and sizes stay."""
        self.stdout = self.stderr = ""


@dataclass
class Pass:
    raw_s: float  # wall clock of the pass, probes included
    results: list

    @property
    def wall_s(self) -> float:
        """First operation's start to last verdict, in reference seconds."""
        return sum(r.ref_seconds for r in self.results)


def run_op(cli, argv) -> OpResult:
    """One colexa invocation in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return OpResult(rc, out.getvalue(), err.getvalue(), seconds)


def run_pass(cli, ops, tracer=None) -> Pass:
    """One pass over ``ops``, with a probe before the first and after each."""
    gc.collect()
    results = []
    start = time.perf_counter()
    before = probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        res = run_op(cli, op.argv)
        after = probe()
        res.scale = 2 * PROBE_REF_S / (before + after)
        results.append(res)
        before = after
    return Pass(time.perf_counter() - start, results)


class Verdicts:
    """Decided and correct operations of a run, and the first problems seen."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = self.decided = self.correct = 0
        self.problems: list[str] = []
        self.groups: dict = {}

    def add_pass(self, ops, results) -> None:
        """Judge one pass, then drop its outputs, so that the memory the
        benchmark holds does not grow with the number of passes."""
        for op, res in zip(ops, results):
            self.attempted += 1
            decided, ok, why = answers.check(op, res.rc, res.stdout, res.stderr)
            if decided and ok:
                want = self.digests.get(op.key)
                if want is None:
                    ok, why = False, "no recorded stdout digest"
                elif res.digest != want:
                    ok, why = False, "stdout differs from the seed commit's"
            if decided and ok:
                group = answers.consistency_key(op)
                if group is not None:
                    value = json.dumps(json.loads(res.stdout)[group[1]], sort_keys=True)
                    if self.groups.setdefault(group[0], value) != value:
                        ok, why = False, f"{group[1]} differs within {group[0]}"
            self.decided += decided
            self.correct += decided and ok
            if not ok:
                self.problem(f"{op.key}: {why} {res.stderr.strip()[-300:]}")
            res.drop_output()

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    @property
    def all_correct(self) -> bool:
        return self.decided == self.correct and not self.problems

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


def child_seconds(code: str, src: str) -> float:
    """Wall time of a fresh interpreter running ``code`` with ``src`` as argv[1]."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
    return seconds


def measure_setup(src: str) -> float:
    """Median time of a fresh process from start to colexa and numpy imported,
    in reference seconds: each time is multiplied by START_REF_S over the mean
    of the bare interpreter starts timed just before and after it."""
    times, raw, bare = [], [], [child_seconds(BARE_CHILD, src)]
    for _ in range(SETUP_REPEATS):
        raw.append(child_seconds(SETUP_CHILD, src))
        bare.append(child_seconds(BARE_CHILD, src))
        times.append(raw[-1] * 2 * START_REF_S / (bare[-2] + bare[-1]))
    print(f"set-up: raw median {statistics.median(raw):.4f} s, bare start median "
          f"{statistics.median(bare):.4f} s", file=sys.stderr)
    return statistics.median(times)


def passes_for(seconds: float, first: float) -> int:
    """Passes that fit in ``seconds`` after a first one of ``first`` seconds;
    at least one, so a run overshoots only when one pass is longer."""
    return max(1, int(seconds / first))


def end_to_end(cli, ops, args, src, verdicts) -> tuple[dict, list]:
    setup_s = measure_setup(src)
    passes = []
    latencies = []
    wanted = None
    while (wanted is None or len(passes) < wanted
           or not percentile_reportable(TAIL_Q, len(latencies))):
        p = run_pass(cli, ops)
        verdicts.add_pass(ops, p.results)
        passes.append(p)
        latencies += [r.ref_seconds for r in p.results]
        if wanted is None:
            wanted = passes_for(args.seconds, p.raw_s)
    decided = verdicts.decided
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "verdict_s.p50": statistics.median(latencies),
        "verdict_s.p90": statistics.quantiles(latencies, n=10)[8],
        "decided_share": decided / verdicts.attempted,
        "correct_share": verdicts.correct / decided if decided else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup_s,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, passes


def per_layer(cli, colexa, ops, args, verdicts) -> tuple[dict, list]:
    tracer = Tracer()
    plain = run_pass(cli, ops)
    verdicts.add_pass(ops, plain.results)
    traced, per_pass, spans = [], [], []
    wanted = None
    while wanted is None or len(traced) < wanted:
        tracer.reset()
        tracer.install(colexa)
        try:
            t = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        verdicts.add_pass(ops, t.results)
        traced.append(t)
        for op, a, b in zip(ops, plain.results, t.results):
            if a.digest != b.digest:
                verdicts.problem(f"{op.key}: traced stdout differs from untraced")
        per_pass.append(layers.pass_metrics(tracer, t.results))
        spans.append((tracer.spans, tracer.attrs))
        if wanted is None:
            wanted = passes_for(args.seconds - plain.raw_s, t.raw_s)

    metrics = {
        name: (statistics.median(p[name] for p in per_pass), unit)
        for name, (unit, _better) in layers.METRICS.items() if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced) - plain.wall_s, "s")

    out = os.path.join("perfbench", "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    header = {
        "workload": args.workload, "seed": args.seed, "passes": per_pass,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": [p.wall_s for p in traced],
        "op_scale": [[r.scale for r in p.results] for p in traced],
        "fields": ["name", "start", "end", "parent", "op", "busy", "pass", "counts"],
    }
    write_spans(path, header, spans)
    return metrics, [plain] + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "colexa", "cli.py")):
        print("perfbench: no colexa sources in ./src; run from the repository root",
              file=sys.stderr)
        return 2
    # results are judged at the default enumeration cap
    os.environ.pop("COLEXA_CAP", None)
    # colexa does no floating point; a BLAS thread pool only adds start-up
    # work whose time depends on whether the other CPU is free at the moment
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, src)
    import colexa
    import colexa.cli as cli

    if not os.path.abspath(colexa.__file__).startswith(src + os.sep):
        print(f"perfbench: imported colexa from {colexa.__file__}, not ./src", file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)["digests"]
    ops = workloads.generate(args.workload, args.seed)
    verdicts = Verdicts(digests)
    if args.trace:
        metrics, passes = per_layer(cli, colexa, ops, args, verdicts)
    else:
        metrics, passes = end_to_end(cli, ops, args, src, verdicts)

    for text in verdicts.problems:
        print(f"perfbench: {text}", file=sys.stderr)
    raw = ", ".join(f"{p.raw_s:.3f}" for p in passes)
    print(f"{args.workload:>10} raw wall clock of the passes: {raw} s", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10} {name:<32} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": verdicts.all_correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
