"""cli: subcommand behavior, exit codes, round trips, determinism."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import unittest.mock

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from colexa import cli, colex, gatecalc, ring
from colexa import code as code_mod
from colexa.cli import main
from builders import with_code
from oracles import PauliWord, stabilizer_words, word_phase


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_gate_level(capsys):
    code, obj = run(capsys, "gate", "level", "--d", "5", "--gate", "T")
    assert code == 0 and obj["level"] == 3
    # a level above --l-cap is an answer, not a failed check
    code, obj = run(capsys, "gate", "level", "--d", "5", "--gate", "T", "--l-cap", "2")
    assert code == 0 and obj["level"] == "> 2" and len(obj["trace"]) == 2


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


def oracle_syndrome(C, L, terms):
    """The syndrome of the word with terms (kind, power, vertex id), from the
    word-level oracle."""
    x, z = [0] * C.n, [0] * C.n
    for kind, power, vertex in terms:
        (x if kind == "X" else z)[list(L.vertex_ids).index(vertex)] += power
    E = PauliWord(C.d, tuple(x), tuple(z))
    return [word_phase(g, E) for g in stabilizer_words(C)]


def assert_unknown_label(capsys, argv, label):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"colexa: unknown vertex label {label!r}\n"


def test_tetra_reads_binary_only_at_four_digits(capsys):
    # mu + 1 = 4 binary digits name a vertex's bits; other labels are decimal
    L, C = with_code(colex.hypercube_lattice(3), 3)
    argv = ["code", "syndrome", "--code", "tetra", "--d", "3", "--error"]
    for label, vertex in (("0011", 3), ("0010", 2), ("1010", 10), ("11", 11), ("00011", 11),
                          ("3", 3)):
        code, obj = run(capsys, *argv, f"Z@{label}")
        assert code == 0 and obj["syndrome"] == oracle_syndrome(C, L, [("Z", 1, vertex)])
    for label in ("111", "0000", "16", "+3", "1_1", ""):
        assert_unknown_label(capsys, argv + [f"Z@{label}"], label)


def test_triangle_labels_are_decimal_ids(capsys):
    # 37 qudits: 100 is no vertex id, and no longer read as binary 4
    argv = ["code", "syndrome", "--code", "triangle", "--distance", "7", "--d", "2", "--error"]
    L, C = with_code(colex.triangle_lattice(7), 2)
    code, obj = run(capsys, *argv, "Z@4")
    assert code == 0 and obj["syndrome"] == oracle_syndrome(C, L, [("Z", 1, 4)])
    for label in ("100", "37"):
        assert_unknown_label(capsys, argv + [f"Z@{label}"], label)


def test_json_code_labels_are_decimal_ids(tmp_path, capsys):
    # qudits 0..14: 10 is qudit 10, and 1110 is no longer read as binary 14
    L, C = with_code(colex.hypercube_lattice(3), 3)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_mod.code_to_json(C)))
    argv = ["code", "syndrome", "--code", str(path), "--error"]
    code, obj = run(capsys, *argv, "Z@10")
    assert code == 0
    assert obj["syndrome"] == oracle_syndrome(C, L, [("Z", 1, L.vertex_ids[10])])
    for label in ("1110", "15"):
        assert_unknown_label(capsys, argv + [f"Z@{label}"], label)


def test_syndrome_powers_reduce_mod_d(capsys):
    # -1 + 10^26 is 0 mod 3 and 4 mod 5
    for d in (3, 5):
        L, C = with_code(colex.hypercube_lattice(3), d)
        code, obj = run(capsys, "code", "syndrome", "--code", "tetra", "--d", str(d), "--error",
                        "X^-1@7,X^100000000000000000000000000@7")
        assert code == 0 and obj["syndrome"] == oracle_syndrome(C, L, [("X", 10**26 - 1, 7)])
        assert any(obj["syndrome"]) == (d == 5)


def test_error_term_without_at_sign_is_a_usage_error(capsys):
    assert main(["code", "syndrome", "--code", "tetra", "--d", "3", "--error", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "colexa: bad error term '', expected PAULI[@^pow]@vertex\n"


@pytest.mark.parametrize("term, power", [("X^@3", ""), ("Z^2x@3", "2x"), ("X^1.5@3", "1.5")])
def test_error_term_with_a_malformed_power_is_a_usage_error(capsys, term, power):
    argv = ["code", "syndrome", "--code", "tetra", "--error", f"Z@1,{term}"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"colexa: error term {term!r}: the power {power!r} is not an integer\n")


@pytest.mark.parametrize("gate", ["R:x", "R:1,,2", "R:", "R:1,2.0"])
def test_gate_with_a_malformed_coefficient_is_a_usage_error(capsys, gate):
    assert main(["gate", "level", "--d", "3", "--gate", gate]) == 2
    assert capsys.readouterr() == (
        "", f"colexa: gate spec {gate!r}: the R coefficients must be integers\n")


def test_x_distance_of_a_logical_in_span_g0_is_a_usage_error(tmp_path, capsys):
    # G1 = G0: the logical X of x = 1 is already a stabilizer
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"d": 3, "n": 3, "stars": [1, 1, 1], "G0": [[1, 1, 1]],
                                "G1": [[1, 1, 1]], "Zstab": []}))
    assert main(["code", "distance", "--code", str(path), "--sector", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "colexa: a logical label x != 0 has x.G1 in span(G0)\n"


def test_z_distance_with_an_empty_commutant_is_a_usage_error(tmp_path, capsys):
    # G0 = I: no nonzero Z commutes with both X stabilizers
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"d": 2, "n": 2, "stars": [1, -1], "G0": [[1, 0], [0, 1]],
                                "G1": [[1, 1]], "Zstab": []}))
    argv = ["code", "distance", "--code", str(path), "--sector", "z"]
    assert assert_one_line_usage_error(capsys, argv) == \
        "colexa: commutant contains no logical; k = 0?"


def test_code_distance(capsys):
    code, obj = run(capsys, "code", "distance", "--code", "triangle",
                    "--d", "2", "--distance", "3", "--sector", "both")
    assert code == 0 and obj == {"x": 3, "z": 3}


def test_codeword(capsys):
    code, obj = run(capsys, "code", "codeword", "--code", "tetra", "--d", "2",
                    "--x", "1")
    assert code == 0 and obj["count"] == 16


# the largest entry drawn per dtype: the dtype's maximum, and 2^70 (22
# digits) for Python ints
ARRAY_TOPS = {np.uint8: 2**8 - 1, np.uint16: 2**16 - 1, np.uint32: 2**32 - 1,
              np.uint64: 2**64 - 1, object: 2**70}


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from(sorted(ARRAY_TOPS, key=str)), m=st.integers(0, 12),
       n=st.integers(0, 6), block=st.sampled_from([1, 2, 5, ring.BLOCK_ROWS]), data=st.data())
@example(dtype=np.uint8, m=1, n=7, block=ring.BLOCK_ROWS, data=None)
@example(dtype=object, m=9, n=1, block=2, data=None)
def test_array_json_matches_json_dumps(dtype, m, n, block, data):
    """array_json is json.dumps(A.tolist()) byte for byte, entries of every
    digit count up to the dtype's largest, one row or column included, and
    whether the rows fit one block or several."""
    top = ARRAY_TOPS[dtype]
    if data is None:
        entries = [[(i * 7 + j * 13) ** 5 % (top + 1) for j in range(n)] for i in range(m)]
    else:
        hi = min(data.draw(st.sampled_from([0, 9, 10, 99, 1000, top])), top)
        entries = [[data.draw(st.integers(0, hi)) for _ in range(n)] for _ in range(m)]
    A = np.array(entries, dtype=dtype).reshape(m, n)
    with unittest.mock.patch.object(ring, "BLOCK_ROWS", block):
        assert cli.array_json(A) == json.dumps(A.tolist())


def test_emit_writes_arrays_as_lists(capsys):
    """emit: an array value prints as json.dumps of its lists, compact and
    with --pretty, keys sorted either way."""
    A = np.array([[3, 10], [0, 255]], dtype=np.uint8)
    payload = {"z": [1, {"b": 2, "a": 1}], "a": A, "m": "t\u00e9"}
    plain = {**payload, "a": A.tolist()}
    for pretty in (False, True):
        cli.emit(payload, pretty)
        assert capsys.readouterr().out == json.dumps(
            plain, indent=2 if pretty else None, sort_keys=True) + "\n"


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


def test_gate_verify_runs_a_json_code_at_its_own_d(tmp_path, capsys):
    # the file's d is 3; --d (default 2, or any other value) does not change it
    _, obj = run(capsys, "code", "build", "--code", "tetra", "--d", "3")
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(obj))
    for extra in ([], ["--d", "5"]):
        code, obj = run(capsys, "gate", "verify", "--code", str(path), "--gate", "T", *extra)
        assert code == 0 and obj["pass"] and obj["checked"] == 3**5
    _, builtin = run(capsys, "gate", "verify", "--code", "tetra", "--d", "3", "--gate", "T")
    assert obj == builtin


@pytest.mark.parametrize("argv,checked", [
    (["--code", "tetra", "--d", "6"], 6**10),
    (["--code", "tetra", "--d", "7"], 7**10),
    (["--code", "triangle", "--distance", "5", "--d", "3"], 3**20),
    (["--code", "triangle", "--distance", "5", "--d", "6"], 6**20),
    (["--code", "tetra", "--d", "3", "--cap", "0"], 3**10),
])
def test_gate_verify_CX_is_not_charged_to_the_cap(capsys, argv, checked):
    code, obj = run(capsys, "gate", "verify", "--gate", "CX", *argv)
    assert code == 0 and obj["pass"] and obj["checked"] == checked


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


def test_cap_is_charged_before_a_built_triangle_is_reused(capsys):
    # the triangle built by the first call is shared, yet the second call's
    # cap still refuses it before the builder is asked for it
    argv = ["lattice", "build", "--lattice", "triangle", "--distance", "25"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--cap", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "colexa: triangle lattice qudits: 469 > cap 100\n"
    for _ in range(2):  # a builder error is raised again, never kept
        with pytest.raises(ValueError, match="odd integer"):
            colex.triangle_lattice(4)


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
    """Run argv, assert exit 2 with empty stdout and one line on stderr, and
    return that line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("colexa: "), captured.err
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["gate", "level", "--d", "3", "--gate", "T", "--cap", "-1"],
    ["gate", "level", "--d", "0", "--gate", "T"],
    ["gate", "level", "--d", "1", "--gate", "T"],
    ["code", "check", "--code", "tetra", "--mu-prime", "2"],
])
def test_out_of_range_flags_exit_2(capsys, argv):
    assert_one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("mu_prime", ["7", "1"])
def test_triangle_rejects_mu_prime_out_of_range(capsys, mu_prime):
    argv = ["code", "check", "--code", "triangle", "--d", "3", "--mu-prime", mu_prime]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "colexa: mu_prime must satisfy 2 <= mu_prime <= mu\n"


def test_triangle_mu_prime_2_is_the_default(capsys):
    argv = ["code", "check", "--code", "triangle", "--d", "3"]
    default = run_raw(capsys, argv)
    assert default[0] == 0 and run_raw(capsys, argv + ["--mu-prime", "2"]) == default


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


@pytest.mark.parametrize("action", ["build", "check"])
def test_repeated_vertex_id_exits_2(tmp_path, capsys, action):
    # before, check exited 1 with a global-count witness and build echoed it
    lattice = colex.lattice_to_json(colex.hypercube_lattice(3))
    lattice["vertices"].append(dict(lattice["vertices"][4]))
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice))
    assert main(["lattice", action, "--lattice", str(path)]) == 2
    assert capsys.readouterr() == ("", "colexa: lattice.vertices[15].id repeats the vertex 5\n")


@pytest.mark.parametrize("action", ["build", "check"])
def test_cell_listing_a_vertex_twice_exits_2(tmp_path, capsys, action):
    # before, the repeat was dropped and both commands exited 0
    lattice = colex.lattice_to_json(colex.hypercube_lattice(3))
    lattice["cells"][2]["vertices"].insert(1, lattice["cells"][2]["vertices"][0])
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice))
    assert main(["lattice", action, "--lattice", str(path)]) == 2
    assert capsys.readouterr() == ("", "colexa: lattice.cells[2].vertices[1] repeats the vertex 4\n")


@pytest.mark.parametrize("bad", [
    [(1, [1])], [(1, [1, 2, 4])],
    # three vertices, one of them not in the lattice: one witness entry
    [(1, [1, 2, 99])],
    # witnesses keep cell order, whichever rule each cell breaks
    [(1, [1, 2, 99]), (9, [1, 2]), (1, [3])],
])
def test_one_cell_of_wrong_size_exits_1(tmp_path, capsys, bad):
    _, obj = run(capsys, "lattice", "build", "--lattice", "tetra")
    obj["cells"] += [{"dim": dim, "color": None, "vertices": vs} for dim, vs in bad]
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(obj))
    code, obj = run(capsys, "lattice", "check", "--lattice", str(path))
    sanity = next(c for c in obj["validate"]["checks"] if c["name"] == "cell-sanity")
    assert code == 1 and not obj["ok"] and not sanity["ok"]
    assert sanity["witness"] == [{"dim": dim, "vertices": vs} for dim, vs in bad]


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


@pytest.mark.parametrize("d", [2**62, 2**64])
def test_distance_at_huge_d_exits_2(capsys, d):
    # the labels and weight patterns over Z_d are counted, never held in memory
    assert_one_line_usage_error(
        capsys, ["code", "distance", "--code", "tetra", "--d", str(d), "--cap", "10000"])


def test_fix_demo_at_huge_d_exits_2(capsys):
    # Miller-Rabin on the first 13 prime bases is exact only below 3.3e24, so
    # a d past that is a usage error, not an OverflowError or an unproven
    # verdict; 3317044064679887385961981 is the least strong pseudoprime to
    # all 13 bases
    for d in ["1" + "0" * 320, "3317044064679887385961981"]:
        assert main(["gauge", "fix-demo", "--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "colexa: tableau simulation supports prime d < 3.3e24\n"


def test_fix_demo_at_large_prime_d(capsys):
    # primality is decided at once, and the demo works at d = 10^18 + 3
    code, payload = run(capsys, "gauge", "fix-demo", "--d", "1000000000000000003")
    assert code == 0 and payload["ok"]


@pytest.mark.parametrize("action", [["lattice", "check", "--lattice"],
                                    ["code", "check", "--code"]])
def test_triangle_qudits_are_charged_before_the_build(capsys, action):
    # distance 99999999 has 1 + 3k(k+1) qudits, k = (distance - 1) / 2
    assert main([*action, "triangle", "--distance", "99999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "colexa: triangle lattice qudits: 7499999850000001 > cap 10000000\n"
    # distance 5 has 19 qudits: the cap is lifted at exactly that count
    assert_one_line_usage_error(capsys, [*action, "triangle", "--distance", "5", "--cap", "18"])
    assert main([*action, "triangle", "--distance", "5", "--cap", "19"]) == 0


def test_morth_check_respects_cap(capsys):
    # 5 rows, m = 6: C(10, 6) = 210 multisets of 6 row indices, 1260 in all
    for cap in ("10", "1259"):
        assert_one_line_usage_error(
            capsys, ["morth", "check", "--code", "tetra", "--d", "2", "--m", "6", "--cap", cap])
    code, obj = run(capsys, "morth", "check", "--code", "tetra", "--d", "2", "--m", "6",
                    "--cap", "1260")
    assert code == 1 and not obj["holds"]


def test_morth_check_charges_m_for_one_row(tmp_path, capsys):
    # with "G0": [] the code matrix is the one G1 row: C(m, m) = 1 multiset,
    # still m = 10^6 row indices long, charged before any of it is built
    obj = code_mod.code_to_json(with_code(colex.hypercube_lattice(3), 3)[1])
    obj["G0"] = []
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    assert_one_line_usage_error(
        capsys, ["morth", "check", "--code", str(path), "--m", str(10**6), "--cap", "10000"])


def test_z_distance_without_x_stabilizers(tmp_path, capsys):
    # with "G0": [] the commutant is all of Z_d^n, and each of the 15 unit
    # vectors lies outside span(Zstab), so the Z distance is 1
    _, C = with_code(colex.hypercube_lattice(3), 2)
    H = ring.span_check(C.z_stab)
    assert ((np.eye(C.n, dtype=H.dtype) @ H) % C.d).any(axis=1).all()
    obj = code_mod.code_to_json(C)
    obj["G0"] = []
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "code", "distance", "--code", str(path), "--sector", "z")
    assert code == 0 and out == {"z": 1}


@pytest.mark.parametrize("argv", [
    # (l_cap + 1) * d table entries: 3,000,000 here
    ["gate", "level", "--d", "1000000", "--gate", "T", "--l-cap", "2", "--cap", "2999999"],
    ["gate", "level", "--d", str(10**30), "--gate", "T"],
    ["gate", "level", "--d", "5", "--gate", "T", "--l-cap", "0"],
    # d * |span(G0)| evaluations: 5 * 625 here
    ["gate", "verify", "--code", "tetra", "--d", "5", "--gate", "T", "--cap", "3124"],
    ["gate", "verify", "--code", "tetra", "--d", str(2**61 - 1), "--gate", "S"],
])
def test_gate_tables_are_charged_before_they_are_built(capsys, monkeypatch, argv):
    monkeypatch.setattr(gatecalc, "build_gate", lambda *a: pytest.fail("a gate table was built"))
    assert_one_line_usage_error(capsys, argv)


def test_gate_tables_at_the_cap_run(capsys):
    code, obj = run(capsys, "gate", "level", "--d", "5", "--gate", "T", "--l-cap", "3",
                    "--cap", "20")
    assert code == 0 and obj["level"] == 3
    code, obj = run(capsys, "gate", "verify", "--code", "tetra", "--d", "5", "--gate", "T",
                    "--cap", "3125")
    assert code == 0 and obj["checked"] == 3125


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


# Every parser's argparse actions in order, recorded from the hand-written
# parser that COMMANDS replaced, as (option_strings, dest, default, type name,
# required, choices, help, nargs, const); keyed by the command words, with
# the handler each parser sets.  Actions, not --help text: argparse formats
# help differently across Python versions.
HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, False, None,
        "show this help message and exit", 0, None)
PRETTY_CAP = [(("--pretty",), "pretty", False, None, False, None, None, 0, True),
              (("--cap",), "cap", None, "int", False, None,
               "enumeration cap (default $COLEXA_CAP or 10^7)", None, None)]
LATTICE_FLAGS = [
    HELP,
    (("--lattice",), "lattice", "tetra", None, False, None,
     "tetra | triangle | path to lattice JSON", None, None),
    (("--distance",), "distance", 3, "int", False, None, None, None, None),
] + PRETTY_CAP
CODE_FLAGS = [
    HELP,
    (("--code",), "code", "tetra", None, False, None,
     "tetra | triangle | path to code JSON", None, None),
    (("--d",), "d", 2, "int", False, None, None, None, None),
    (("--distance",), "distance", 3, "int", False, None, None, None, None),
    (("--mu-prime",), "mu_prime", None, "int", False, None, None, None, None),
] + PRETTY_CAP


def subcommands(dest, choices):
    return (None, [HELP, ((), dest, None, None, False, choices, None, "A...", None)])


PARSER_ACTIONS = {
    "": subcommands("group", ("lattice", "code", "morth", "gate", "gauge")),
    "lattice": subcommands("action", ("build", "check")),
    "lattice build": ("cmd_lattice_build", LATTICE_FLAGS),
    "lattice check": ("cmd_lattice_check", LATTICE_FLAGS),
    "code": subcommands("action", ("build", "check", "distance", "syndrome", "codeword")),
    "code build": ("cmd_code_build", CODE_FLAGS),
    "code check": ("cmd_code_check", CODE_FLAGS),
    "code distance": ("cmd_code_distance", CODE_FLAGS + [
        (("--sector",), "sector", "both", None, False, ("x", "z", "both"), None, None, None)]),
    "code syndrome": ("cmd_code_syndrome", CODE_FLAGS + [
        (("--error",), "error", None, None, True, None,
         "comma-separated Pauli terms, e.g. Z@1111 or X^2@7", None, None)]),
    "code codeword": ("cmd_code_codeword", CODE_FLAGS + [
        (("--x",), "x", 0, "int", False, None, None, None, None)]),
    "morth": subcommands("action", ("check",)),
    "morth check": ("cmd_morth_check", CODE_FLAGS + [
        (("--m",), "m", None, "int", True, None, None, None, None),
        (("--mode",), "mode", "strong", None, False, ("strong", "weak"), None, None, None)]),
    "gate": subcommands("action", ("level", "verify")),
    "gate level": ("cmd_gate_level", [
        HELP,
        (("--d",), "d", None, "int", True, None, None, None, None),
        (("--gate",), "gate", None, None, True, None, None, None, None),
        (("--l-cap",), "l_cap", 10, "int", False, None, None, None, None),
    ] + PRETTY_CAP),
    "gate verify": ("cmd_gate_verify", CODE_FLAGS + [
        (("--gate",), "gate", None, None, True, None, "T | T36 | S | R:a0,a1,... | CX",
         None, None)]),
    "gauge": subcommands("action", ("check", "fix-demo")),
    "gauge check": ("cmd_gauge_check", CODE_FLAGS),
    "gauge fix-demo": ("cmd_gauge_fix_demo", [
        HELP,
        (("--d",), "d", 3, "int", False, None, None, None, None),
        (("--seed",), "seed", 0, "int", False, None, None, None, None),
    ] + PRETTY_CAP),
}


def parser_actions(parser, words=()):
    """{command words: (handler, actions)} of parser and every parser below
    it, in the order argparse holds them."""
    def record(a):
        return (tuple(a.option_strings), a.dest, a.default,
                None if a.type is None else a.type.__name__, a.required,
                None if a.choices is None else tuple(a.choices), a.help, a.nargs, a.const)

    out = {" ".join(words): (parser.get_default("handler"), [record(a) for a in parser._actions])}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                out.update(parser_actions(sub, words + (name,)))
    return out


def test_parser_actions_are_pinned():
    actions = parser_actions(cli.build_parser.__wrapped__())
    assert list(actions) == list(PARSER_ACTIONS)
    for words, pinned in PARSER_ACTIONS.items():
        assert actions[words] == pinned, words


def test_every_command_has_a_handler_and_every_handler_a_command():
    named = {f"cmd_{group}_{action}".replace("-", "_")
             for group, actions in cli.COMMANDS.items() for action in actions}
    assert all(callable(getattr(cli, name, None)) for name in named)
    assert named == {name for name, f in vars(cli).items()
                     if name.startswith("cmd_") and callable(f)}


def cli_env():
    """The environment of a colexa subprocess that imports this colexa."""
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parent.parent))


def test_import_does_not_build_the_parser():
    probe = ("import colexa.cli as c; assert c.build_parser.cache_info().currsize == 0; "
             "c.main(['gate', 'level', '--d', '3', '--gate', 'T']); "
             "assert c.build_parser.cache_info().currsize == 1")
    proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


CODEWORD_ARGV = ["-m", "colexa.cli", "code", "codeword", "--code", "triangle", "--d", "3", "--x", "1"]


def assert_write_failed(proc, stderr):
    assert proc.returncode == 2
    assert len(stderr.splitlines()) == 1, stderr
    assert stderr.startswith("colexa: cannot write the output: ")


def test_closed_stdout_pipe_exits_2_without_a_traceback():
    # the reader is gone before the first byte: every write raises EPIPE
    proc = subprocess.Popen([sys.executable, *CODEWORD_ARGV], env=cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.wait()
    proc.stderr.close()
    assert_write_failed(proc, stderr)
    assert "Broken pipe" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_device_exits_2_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *CODEWORD_ARGV], env=cli_env(), stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert_write_failed(proc, proc.stderr)
    assert "No space left" in proc.stderr


def json_paths(obj, path=()):
    """The path of every node below the top of a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


ODD_VALUES = st.one_of(st.integers(-3, 20), st.integers(2**62, 2**64), st.booleans(),
                       st.none(), st.floats(allow_nan=False), st.text(max_size=3),
                       st.lists(st.integers(-1, 3), max_size=3), st.just({}))


@st.composite
def mutated(draw, obj):
    """obj after one to three mutations: a cell or row dropped, duplicated or
    resized, an entry of another type or value, or another d or mu."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "resize", "replace", "d or mu"]))
        if kind == "d or mu":
            key = "d" if "d" in obj else "mu"
            obj[key] = draw(st.integers(-1, 9) | st.sampled_from([2**31 - 1, 2**64]))
            continue
        paths = list(json_paths(obj))
        if kind == "resize":
            paths = [p for p in paths if isinstance(lookup(obj, p), list)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = lookup(obj, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        elif kind == "resize":
            items = parent[key]
            size = draw(st.integers(0, len(items) + 2))
            filler = items[-1] if items else 0
            parent[key] = (items + [filler] * size)[:size]
        elif kind == "replace":
            parent[key] = draw(ODD_VALUES)
    return obj


FUZZ_LATTICE = colex.lattice_to_json(colex.hypercube_lattice(3))
FUZZ_CODE = code_mod.code_to_json(with_code(colex.hypercube_lattice(3), 3)[1])
FUZZ_COMMANDS = [
    ["lattice", "check", "--lattice"],
    ["code", "check", "--code"],
    ["code", "distance", "--code"],
    ["code", "syndrome", "--error", "X^2@1,Z@3", "--code"],
    ["code", "codeword", "--x", "1", "--code"],
]


@settings(max_examples=200, deadline=None)
@given(lattice=mutated(FUZZ_LATTICE), code=mutated(FUZZ_CODE))
def test_mutated_json_ends_in_an_exit_code(lattice, code):
    """Every mutated input ends in exit 0, 1 or 2 with no traceback, and
    stdout is JSON unless the exit is 2."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in (("lattice", lattice), ("code", code)):
            paths[name] = pathlib.Path(tmp, name + ".json")
            paths[name].write_text(json.dumps(obj))
        for argv in FUZZ_COMMANDS:
            path = paths["lattice" if argv[0] == "lattice" else "code"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv + [str(path), "--cap", "10000"])
            assert status in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if status != 2:
                json.loads(out.getvalue())


GATE_SPECS = st.one_of(
    st.sampled_from(["T", "T36", "S", "CX", "R:", "R:1,", ""]),
    st.lists(st.integers(-9, 9) | st.just(2**64), max_size=5).map(
        lambda c: "R:" + ",".join(map(str, c))),
    st.text(max_size=5).map(lambda t: "R:" + t),
)
ARGV_INTS = st.integers(-2, 12) | st.sampled_from([2**31 - 1, 2**64])


@settings(max_examples=60, deadline=None)
@given(code=mutated(FUZZ_CODE), d=ARGV_INTS, gate=GATE_SPECS, m=ARGV_INTS,
       l_cap=ARGV_INTS, mu_prime=st.none() | ARGV_INTS)
# one G1 row and no G0 rows: one multiset, 2^31 - 1 row indices long
@example(code={**FUZZ_CODE, "G0": []}, d=3, gate="T", m=2**31 - 1, l_cap=2, mu_prime=None)
def test_mutated_argv_ends_in_an_exit_code(code, d, gate, m, l_cap, mu_prime):
    """morth check, gate verify, gate level and gauge check on mutated code
    JSON and on tetra, with drawn --d, --gate, --m, --l-cap and --mu-prime:
    exit 0, 1 or 2 with no traceback, and JSON unless the exit is 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "code.json")
        path.write_text(json.dumps(code))
        commands = [["gate", "level", "--d", str(d), "--gate", gate, "--l-cap", str(l_cap)]]
        for source in (str(path), "tetra"):
            flags = ["--code", source, "--d", str(d)]
            flags += [] if mu_prime is None else ["--mu-prime", str(mu_prime)]
            commands += [["morth", "check", "--m", str(m), *flags],
                         ["gate", "verify", "--gate", gate, *flags],
                         ["gauge", "check", *flags]]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv + ["--cap", "10000"])
            assert status in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            if status != 2:
                json.loads(out.getvalue())
