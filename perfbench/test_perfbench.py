"""The benchmark's own tests: python3 -m pytest perfbench -q (from the repo root)."""

import inspect
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import answers  # noqa: E402
import colexa  # noqa: E402
import colexa.cli  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def module_functions():
    """Every (owner, attr, value) the tracer may patch."""
    out = []
    for short in tr.MODULES:
        mod = sys.modules[f"colexa.{short}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)):
                out.append((mod, attr, obj))
                if inspect.isclass(obj):
                    out += [(obj, m, f) for m, f in vars(obj).items() if not m.startswith("_")]
    return out


def test_install_wraps_imported_names_and_uninstall_restores():
    before = module_functions()
    t = tr.Tracer()
    t.install(colexa)
    try:
        from colexa import code, gatecalc, gauge, ring

        assert ring.smith_normal_form.__perfbench_original__ is not None
        # names imported from another module share the one wrapper
        assert gauge.symplectic_phase is code.symplectic_phase
        assert gatecalc.codeword is code.codeword
        assert gauge.Tableau.measure.__perfbench_original__.__name__ == "measure"
        with pytest.raises(RuntimeError):
            t.install(colexa)
        result = run.run_op(colexa.cli, ["code", "codeword", "--code", "tetra", "--d", "2"])
        assert result.rc == 0
    finally:
        t.uninstall()
    after = module_functions()
    assert [(o, a, v) for o, a, v in before] == [(o, a, v) for o, a, v in after]
    assert all(vars(owner)[attr] is value for owner, attr, value in before)
    assert not any(hasattr(v, "__perfbench_original__") for _o, _a, v in after)

    names = [s[tr.NAME] for s in t.spans]
    assert names[0] == "cli.main" and t.spans[0][tr.PARENT] == -1
    assert "ring.iter_span" in names and "code.codeword" in names
    assert all(s[tr.END] is not None for s in t.spans)
    elements = [a["elements"] for i, a in t.attrs.items() if names[i] == "ring.iter_span"]
    assert elements == [16]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tr.Tracer(clock)
    outer = t.open("outer")        # 0 .. 10
    clock.now = 1.0
    child = t.open("child")        # 1 .. 4, with a grandchild 2 .. 3
    clock.now = 2.0
    grand = t.open("grand")
    clock.now = 3.0
    t.close(grand)
    clock.now = 4.0
    t.close(child)
    clock.now = 5.0
    gen = t.open("gen")            # a generator busy 5 .. 6 and 8 .. 9
    clock.now = 6.0
    t.suspend(gen)
    clock.now = 8.0                # the consumer's own work stays with outer
    t.resume(gen)
    clock.now = 9.0
    t.close(gen)
    clock.now = 10.0
    t.close(outer)
    assert tr.self_times(t.spans) == [10 - 3 - 2, 3 - 1, 1, 2]


def test_generator_wrapper_counts_and_keeps_consumer_time_out():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def numbers():
        for i in range(3):
            clock.now += 1.0       # one second of generator work per element
            yield i

    wrapped = t.wrap(numbers)
    outer = t.open("consumer")
    for _ in wrapped():
        clock.now += 10.0          # consumer work between elements
    t.close(outer)
    gen_span = t.spans[1]
    assert gen_span[tr.PARENT] == 0 and gen_span[tr.BUSY] == 3.0
    assert t.attrs[1] == {"elements": 3}
    assert tr.self_times(t.spans) == [30.0, 3.0]


def test_percentile_rule():
    assert not run.percentile_reportable(0.9, 99)
    assert run.percentile_reportable(0.9, 100)
    assert run.percentile_reportable(0.5, 20)
    assert not run.percentile_reportable(0.99, 999)
    assert run.percentile_reportable(0.99, 1000)
    # one pass of every workload is enough to report p90
    for name in workloads.WORKLOADS:
        assert run.percentile_reportable(run.TAIL_Q, len(workloads.generate(name, 0)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_identical_argv(name):
    first = [op.argv for op in workloads.generate(name, 7)]
    assert first == [op.argv for op in workloads.generate(name, 7)]
    assert first != [op.argv for op in workloads.generate(name, 8)]
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)["digests"]
    pool = {op.key for op in workloads.pool(name)}
    for seed in range(5):
        for op in workloads.generate(name, seed):
            assert op.key in pool and op.key in digests


def test_known_answers_judge_outputs():
    op = workloads.distance("tetra", 3, "both")
    assert answers.check(op, 0, '{"x": 7, "z": 3}\n', "") == (True, True, "")
    decided, correct, why = answers.check(op, 0, '{"x": 7, "z": 4}\n', "")
    assert decided and not correct and "distances" in why
    assert answers.check(op, None, "", "") == (False, False, "raised an exception")
    morth_op = workloads.morth_check("tetra", 3, 4, "strong")
    decided, correct, why = answers.check(morth_op, 0, '{"holds": false, "m": 4, '
                                          '"mode": "strong", "witnesses": [1]}', "")
    assert not correct and "exit code 0, want 1" in why


def test_traced_and_untraced_stdout_agree():
    ops = workloads.generate("gauge", 3)[:12]
    plain = run.run_pass(colexa.cli, ops).results
    t = tr.Tracer()
    t.install(colexa)
    try:
        traced = run.run_pass(colexa.cli, ops, t).results
    finally:
        t.uninstall()
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert all(r.scale > 0 for r in traced)
    metrics = layers.pass_metrics(t, traced)
    assert set(metrics) == set(layers.METRICS) - {"trace.overhead_s"}
    assert metrics["ring.snf.calls"] > 0 and metrics["cli.exit2"] == 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        rows = json.load(fh)["map"]
    mapped = [name for row in rows for name in row["layer"]]
    assert sorted(mapped) == sorted(layers.METRICS)
    for row in rows:
        for metric, workload in row["moves"]:
            assert metric in run.END_TO_END and workload in workloads.WORKLOADS


def test_only_the_known_cap_cases_may_be_undecided():
    capped = "colexa: Z-sector search space exceeds cap\n"
    known = workloads.distance("tetra", 5, "z")
    assert answers.check(known, 2, "", capped) == (False, True, "undecided (cap exceeded)")
    usage = "usage: colexa ... error: unrecognized arguments\n"
    assert answers.check(known, 2, "", usage)[:2] == (False, False)
    for op in (workloads.distance("tetra", 3, "both"), workloads.distance("tetra", 3, "z")):
        assert answers.check(op, 2, "", capped)[:2] == (False, False)


def test_judged_results_keep_only_digest_and_size():
    ops = workloads.generate("gauge", 1)[:3]
    p = run.run_pass(colexa.cli, ops)
    before = [(r.digest, r.stdout_bytes) for r in p.results]
    verdicts = run.Verdicts({op.key: r.digest for op, r in zip(ops, p.results)})
    verdicts.add_pass(ops, p.results)
    assert verdicts.all_correct
    assert all(r.stdout == r.stderr == "" for r in p.results)
    assert [(r.digest, r.stdout_bytes) for r in p.results] == before
