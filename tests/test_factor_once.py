"""Work counts: every ResidueMatrix is factored at most once, so the gauge
checks make a handful of Smith normal forms, not one per question, and at
prime d none, one echelon form per half instead; gauge fixing at prime d
makes none; a matrix asked only whether its rows are independent is not
factored at all; and each built-in lattice is built and audited once per
process."""

import random

import pytest

from colexa import cli, colex, gauge, ring
from builders import with_code
from oracles import solve_left, stabilizer_words


@pytest.fixture
def snf_calls(monkeypatch):
    calls = []
    original = ring.smith_normal_form

    def counting(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(ring, "smith_normal_form", counting)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    original = ring._eliminate

    def counting(rows, N):
        calls.append(len(rows))
        return original(rows, N)

    monkeypatch.setattr(ring, "_eliminate", counting)
    return calls


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10**18 + 3])
def test_fix_demo_factor_count(snf_calls, monkeypatch, d):
    # every prime-d question of the tableau and the correction is one
    # echelon form over F_d: no Smith form (so no solve over Z_N), no kernel;
    # the start state is built afresh, so zero_logical is counted too
    calls = []
    monkeypatch.setattr(ring, "kernel_mod", lambda *a: calls.append("kernel_mod"))
    gauge._fix_demo_start.cache_clear()
    log = gauge.fix_demo(d, 1)
    assert all(log["post"].values())
    assert snf_calls == [] and calls == []


@pytest.mark.parametrize("d", [2, 3, 5])
def test_determined_measurements_factor_nothing(snf_calls, d):
    # each block of determined outcomes is one product with the destabilizer
    # rows; the library has no linear solve, and nothing is factored
    C = with_code(colex.hypercube_lattice(3), d)[1]
    T = gauge.Tableau.zero_logical(C)
    snf_calls.clear()
    rng = random.Random(0)
    assert all(T.measure([w.x_exp + w.z_exp], rng) == [0] for w in stabilizer_words(C))
    assert not hasattr(ring, "solve_left") and snf_calls == []


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_gauge_check_factor_count(snf_calls, monkeypatch, d):
    # every question is asked of the X and Z halves: at prime d the center
    # eliminates A = face_x face_z^T and A^T once each, and each half's span
    # check is one elimination of its transpose, kept for verify_H_logical;
    # at composite d the same six matrices are factored instead
    echelons = []
    original = ring.echelon_mod_p
    monkeypatch.setattr(ring, "echelon_mod_p",
                        lambda A, p: echelons.append(A.shape) or original(A, p))
    L, _ = with_code(colex.hypercube_lattice(3), d)
    G = gauge.build_gauge_code(L, d)
    snf_calls.clear()
    assert gauge.center_equals_stabilizer(G).ok and gauge.verify_H_logical(G).ok
    faces, cells = G.face_x.nrows, G.cell_x.nrows
    if d in (2, 3):
        assert snf_calls == []
        assert sorted(echelons) == sorted([(faces, faces)] * 2 + [(G.n, faces)] * 2
                                          + [(G.n, cells)] * 2)
    else:
        assert echelons == [] and len(snf_calls) <= 6


def test_repeated_questions_factor_once(snf_calls):
    M = ring.ResidueMatrix(6, ((2, 3, 0), (4, 0, 1), (0, 3, 3)))
    for w in [(0, 0, 0), (2, 3, 0), (1, 1, 1), (0, 3, 4)]:
        solve_left(M, w)
    ring.kernel_mod(M)
    ring.span_size(M)
    ring.row_basis(M)
    assert len(list(ring.iter_span(M))) == ring.span_size(M)
    assert len(snf_calls) == 1
    # an equal matrix is another instance and is factored on its own
    ring.kernel_mod(ring.ResidueMatrix(6, M.rows))
    assert len(snf_calls) == 2


def test_code_check_decides_independence_once(snf_calls, eliminations, capsys):
    # from_colex checks injectivity and verify_code reports it: both read the
    # one verdict kept on the code's [G1; G0], and nothing is factored
    assert cli.main(["code", "check", "--code", "triangle", "--distance", "13"]) == 0
    assert snf_calls == []
    faces = colex.triangle_lattice(13).cells_of_dim(2)
    assert eliminations == [len(faces) + 1]


@pytest.mark.parametrize("action", ["build", "check"])
@pytest.mark.parametrize("lattice", [["tetra"], ["triangle", "--distance", "7"]])
def test_lattice_commands_factor_nothing(snf_calls, capsys, action, lattice):
    # a lattice command builds no code, so it runs no injectivity check
    assert cli.main(["lattice", action, "--lattice", *lattice]) == 0
    assert snf_calls == []


def test_syndrome_factors_nothing(snf_calls, capsys):
    # from_colex's injectivity check is an elimination; the syndrome itself is
    # two products
    argv = ["code", "syndrome", "--code", "triangle", "--d", "6", "--distance", "11",
            "--error", "X^2@3,Z@40"]
    assert cli.main(argv) == 0
    assert snf_calls == []


def test_tetra_at_another_mu_prime_builds_one_code(snf_calls, eliminations, capsys,
                                                  monkeypatch):
    # only the mu' = 2 code is built, so only its injectivity check runs; its
    # 19 rows outnumber the 15 qudits, which decides it without elimination
    decided = []
    original = ring.independent_rows
    monkeypatch.setattr(ring, "independent_rows", lambda M: decided.append(M.nrows) or original(M))
    assert cli.main(["code", "check", "--code", "tetra", "--mu-prime", "2"]) == 2
    assert decided == [19]
    assert snf_calls == [] and eliminations == []
    assert capsys.readouterr().err == ("colexa: mu_prime=2: [G1; G0] has a nontrivial left "
                                       "kernel (dependent generators or no encoded qudit)\n")


def test_each_lattice_is_built_and_audited_once(monkeypatch, capsys):
    colex.triangle_lattice.cache_clear()
    audits = []
    original = colex.audit
    monkeypatch.setattr(colex, "audit", lambda L: audits.append(L.mu) or original(L))
    for d in (2, 6):
        for error in ("X@0", "Z@5", "X@3,Z@40", "Z@60", "X@1,X@2", "Z@7"):
            argv = ["code", "syndrome", "--code", "triangle", "--distance", "11",
                    "--d", str(d), "--error", error]
            assert cli.main(argv) == 0
    assert audits == [2]

    tetra = colex.hypercube_lattice(3)
    gauge_lattices = []
    build = gauge.build_gauge_code
    monkeypatch.setattr(gauge, "build_gauge_code",
                        lambda L, d: gauge_lattices.append(L) or build(L, d))
    assert cli.main(["gauge", "check", "--code", "tetra"]) == 0
    gauge._fix_demo_start.cache_clear()
    gauge.fix_demo(3, 0)
    assert len(gauge_lattices) == 2 and all(L is tetra for L in gauge_lattices)
