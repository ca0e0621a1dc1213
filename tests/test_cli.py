"""cli: subcommand behavior, exit codes, round trips, determinism."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from colexa import cli
from colexa.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_gate_level(capsys):
    code, obj = run(capsys, "gate", "level", "--d", "5", "--gate", "T")
    assert code == 0 and obj["level"] == 3


def test_morth_check_pass_and_fail(capsys):
    code, obj = run(capsys, "morth", "check", "--code", "tetra", "--d", "3",
                    "--m", "3", "--mode", "strong")
    assert code == 0 and obj["holds"]
    code, obj = run(capsys, "morth", "check", "--code", "tetra", "--d", "3",
                    "--m", "4", "--mode", "strong")
    assert code == 1 and not obj["holds"] and obj["witnesses"]


def test_syndrome_binary_vertex_label(capsys):
    code, obj = run(capsys, "code", "syndrome", "--code", "tetra", "--d", "3",
                    "--error", "Z@1111")
    assert code == 0
    assert obj["nonzero"] == [0, 1, 2, 3]
    code, obj = run(capsys, "code", "syndrome", "--code", "tetra", "--d", "3",
                    "--error", "X@1111")
    assert code == 0 and len(obj["nonzero"]) == 6


def test_code_distance(capsys):
    code, obj = run(capsys, "code", "distance", "--code", "triangle",
                    "--d", "2", "--distance", "3", "--sector", "both")
    assert code == 0 and obj == {"x": 3, "z": 3}


def test_codeword(capsys):
    code, obj = run(capsys, "code", "codeword", "--code", "tetra", "--d", "2",
                    "--x", "1")
    assert code == 0 and obj["count"] == 16


def test_lattice_round_trip(tmp_path, capsys):
    code, obj = run(capsys, "lattice", "build", "--lattice", "triangle",
                    "--distance", "5")
    assert code == 0
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(obj))
    code, rep = run(capsys, "lattice", "check", "--lattice", str(path))
    assert code == 0 and rep["ok"]
    assert rep["starred"] == 9 and rep["unstarred"] == 10


def test_code_round_trip(tmp_path, capsys):
    code, obj = run(capsys, "code", "build", "--code", "tetra", "--d", "5")
    assert code == 0
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    code, rep = run(capsys, "code", "check", "--code", str(path))
    assert code == 0 and rep["ok"]
    # in-process and file-ingested verifications agree bit for bit
    code2, rep2 = run(capsys, "code", "check", "--code", "tetra", "--d", "5")
    assert rep == rep2


def test_gate_verify_pass_fail(capsys):
    code, obj = run(capsys, "gate", "verify", "--code", "tetra", "--d", "5",
                    "--gate", "T")
    assert code == 0 and obj["pass"]
    code, obj = run(capsys, "gate", "verify", "--code", "triangle", "--d", "5",
                    "--gate", "T")
    assert code == 1 and not obj["pass"] and obj["witness"]


def test_gauge_check(capsys):
    code, obj = run(capsys, "gauge", "check", "--code", "tetra", "--d", "3")
    assert code == 0 and obj["ok"]
    assert obj["gauge_generators"] == 36
    assert obj["negative_control_global_H_fails"]


def test_fix_demo_seeded_determinism(capsys):
    code, first = run(capsys, "gauge", "fix-demo", "--d", "3", "--seed", "4")
    assert code == 0 and first["ok"]
    code, again = run(capsys, "gauge", "fix-demo", "--d", "3", "--seed", "4")
    assert again == first
    code, other = run(capsys, "gauge", "fix-demo", "--d", "3", "--seed", "5")
    # outcomes may differ but the fixed stabilizer group may not
    assert other["canonical_form"] == first["canonical_form"]


def test_pretty_is_same_json(capsys):
    _, plain = run(capsys, "gate", "level", "--d", "3", "--gate", "T36")
    _, pretty = run(capsys, "gate", "level", "--d", "3", "--gate", "T36",
                    "--pretty")
    assert plain == pretty


def test_cap_flag_and_env(capsys, monkeypatch):
    code = main(["code", "codeword", "--code", "tetra", "--d", "3", "--cap", "5"])
    capsys.readouterr()
    assert code == 2
    monkeypatch.setenv("COLEXA_CAP", "5")
    code = main(["code", "codeword", "--code", "tetra", "--d", "3"])
    capsys.readouterr()
    assert code == 2


def test_usage_errors(capsys):
    assert main(["code", "syndrome", "--code", "tetra", "--d", "3",
                 "--error", "Q@1111"]) == 2
    capsys.readouterr()
    assert main(["code", "check", "--code", "/no/such/file.json"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def assert_one_line_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("colexa: "), captured.err


@pytest.mark.parametrize("argv", [
    ["gate", "level", "--d", "3", "--gate", "T", "--cap", "-1"],
    ["gate", "level", "--d", "0", "--gate", "T"],
    ["gate", "level", "--d", "1", "--gate", "T"],
    ["code", "check", "--code", "tetra", "--mu-prime", "2"],
])
def test_out_of_range_flags_exit_2(capsys, argv):
    assert_one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_cap_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("COLEXA_CAP", value)
    assert_one_line_usage_error(capsys, ["gate", "level", "--d", "3", "--gate", "T"])


@pytest.mark.parametrize("group", ["lattice", "code"])
def test_json_top_level_list_exits_2(tmp_path, capsys, group):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    flag = "--lattice" if group == "lattice" else "--code"
    assert_one_line_usage_error(capsys, [group, "check", flag, str(path)])


@pytest.mark.parametrize("lattice", [
    {"vertices": [1, 2], "cells": [], "mu": 3, "punctured": True},
    {"vertices": [{"id": 1}], "cells": [{"dim": 1, "vertices": 5}], "mu": 3, "punctured": True},
    {"vertices": [{"id": "a"}], "cells": [], "mu": 3, "punctured": True},
    {"vertices": [], "cells": [], "mu": 3, "punctured": 1},
    {"vertices": [], "cells": [], "punctured": True},
])
def test_malformed_lattice_inside_exits_2(tmp_path, capsys, lattice):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice))
    assert_one_line_usage_error(capsys, ["lattice", "check", "--lattice", str(path)])


@pytest.mark.parametrize("edit", ["short G0 row", "two G1 rows", "string entry", "n = 0"])
def test_malformed_code_inside_exits_2(tmp_path, capsys, edit):
    code, obj = run(capsys, "code", "build", "--code", "tetra", "--d", "3")
    assert code == 0
    if edit == "short G0 row":
        obj["G0"][1] = [1]
    elif edit == "two G1 rows":
        obj["G1"] = obj["G1"] * 2
    elif edit == "string entry":
        obj["Zstab"][0][0] = "1"
    else:
        obj.update(n=0, stars=[], G0=[], G1=[[]], Zstab=[])
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    for argv in (["code", "check"], ["code", "distance"], ["morth", "check", "--m", "2"]):
        assert_one_line_usage_error(capsys, argv + ["--code", str(path)])


def test_morth_check_respects_cap(capsys):
    # 5 rows, m = 6: C(10, 6) = 210 multisets
    assert_one_line_usage_error(
        capsys, ["morth", "check", "--code", "tetra", "--d", "2", "--m", "6", "--cap", "10"])
    code, obj = run(capsys, "morth", "check", "--code", "tetra", "--d", "2", "--m", "6",
                    "--cap", "210")
    assert code == 1 and not obj["holds"]


def readme_commands():
    """The argv of every `colexa ...` line of the README's shell examples."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    return [shlex.split(line, comments=True)[1:]
            for line in readme.read_text().splitlines() if line.startswith("colexa ")]


def run_raw(capsys, argv):
    """(exit code, stdout) of one call; argparse usage errors exit 2 by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    """main shares one parser across calls; in any call order each result
    equals the one a freshly built parser gives."""
    commands = readme_commands()
    assert len(commands) >= 15
    codeword = ["code", "codeword", "--code", "tetra", "--d", "3"]
    calls = [(None, argv) for argv in commands] + [
        (None, ["code", "distance", "--sector", "q"]),  # argparse error: SystemExit(2)
        (None, ["code"]),                                # no action: usage, exit 2
        ("5", codeword),                                 # COLEXA_CAP too small: exit 2
        ("1000", codeword),
        ("5", codeword + ["--cap", "81"]),               # --cap wins over COLEXA_CAP
        (None, codeword + ["--cap", "80"]),
    ]

    def results(order):
        out = {}
        for i in order:
            env, argv = calls[i]
            if env is None:
                monkeypatch.delenv("COLEXA_CAP", raising=False)
            else:
                monkeypatch.setenv("COLEXA_CAP", env)
            out[i] = run_raw(capsys, argv)
        return out

    forward = list(range(len(calls)))
    shared = [results(forward), results(forward[::-1])]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = results(forward)
    assert shared[0] == shared[1] == fresh
    assert {code for code, _out in fresh.values()} == {0, 1, 2}
    # the four cap calls, in order: the codeword has 3^4 = 81 terms
    assert [fresh[i][0] for i in range(len(calls) - 4, len(calls))] == [2, 0, 0, 2]


def test_import_does_not_build_the_parser():
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    probe = ("import colexa.cli as c; assert c.build_parser.cache_info().currsize == 0; "
             "c.main(['gate', 'level', '--d', '3', '--gate', 'T']); "
             "assert c.build_parser.cache_info().currsize == 1")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
