"""cli: subcommand behavior, exit codes, round trips, determinism."""

import json

import pytest

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
