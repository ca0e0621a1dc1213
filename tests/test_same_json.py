"""Same JSON: every operation of the benchmark's workloads prints, in
process, the stdout recorded in perfbench/digests.json and the verdict of
perfbench/answers.py.  perfbench/ is only read."""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from colexa import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import answers  # noqa: E402
import workloads  # noqa: E402


def wrong_ops(workload: str, size: int) -> list:
    """(key, exit code, reason) of every operation of the workload's pool
    whose stdout digest or verdict differs from the recorded one."""
    digests = json.loads((PERFBENCH / "digests.json").read_text())["digests"]
    ops = workloads.pool(workload)
    assert len(ops) == size
    wrong = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        stdout = out.getvalue()
        _decided, correct, why = answers.check(op, rc, stdout, err.getvalue())
        if hashlib.sha256(stdout.encode()).hexdigest() != digests[op.key] or not correct:
            wrong.append((op.key, rc, why))
    return wrong


def test_gauge_pool_prints_the_recorded_stdout(monkeypatch):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    assert wrong_ops("gauge", 279) == []


@pytest.mark.parametrize("workload,size", [("enumerate", 56), ("factor", 157)])
def test_pool_prints_the_recorded_stdout(monkeypatch, workload, size):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    assert wrong_ops(workload, size) == []
