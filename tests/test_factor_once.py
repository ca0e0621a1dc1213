"""Work counts: every ResidueMatrix is factored at most once, so the gauge
paths make a handful of Smith normal forms, not one per question."""

import pytest

from colexa import cli, code, colex, gauge, ring


@pytest.fixture
def snf_calls(monkeypatch):
    calls = []
    original = ring.smith_normal_form

    def counting(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(ring, "smith_normal_form", counting)
    return calls


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_fix_demo_factor_count(snf_calls, d):
    log = gauge.fix_demo(d, 1)
    assert all(log["post"].values())
    assert len(snf_calls) <= 11


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_gauge_check_factor_count(snf_calls, d):
    L, _ = colex.build_tetrahedral(d)
    G = gauge.build_gauge_code(L, d)
    snf_calls.clear()
    assert gauge.center_equals_stabilizer(G).ok and gauge.verify_H_logical(G).ok
    assert len(snf_calls) <= 6


def test_repeated_questions_factor_once(snf_calls):
    M = ring.ResidueMatrix(6, ((2, 3, 0), (4, 0, 1), (0, 3, 3)))
    for w in [(0, 0, 0), (2, 3, 0), (1, 1, 1), (0, 3, 4)]:
        ring.solve_left(M, w)
    ring.kernel_mod(M)
    ring.span_size(M)
    ring.row_basis(M)
    assert len(list(ring.iter_span(M))) == ring.span_size(M)
    assert len(snf_calls) == 1
    # an equal matrix is another instance and is factored on its own
    ring.kernel_mod(ring.ResidueMatrix(6, M.rows))
    assert len(snf_calls) == 2


def test_code_check_factors_encoding_once(snf_calls):
    # from_colex checks injectivity and verify_code reports it: both read the
    # one factorization of the code's [G1; G0]
    _, C = colex.build_triangle_2d(2, 13)
    assert code.verify_code(C).ok
    stacked = [A for A in snf_calls if len(A) == C.G0.nrows + 1]
    assert stacked == [C.G1.rows + C.G0.rows]


@pytest.mark.parametrize("action", ["build", "check"])
@pytest.mark.parametrize("lattice", [["tetra"], ["triangle", "--distance", "7"]])
def test_lattice_commands_factor_nothing(snf_calls, capsys, action, lattice):
    # a lattice command builds no code, so it runs no injectivity check
    assert cli.main(["lattice", action, "--lattice", *lattice]) == 0
    assert snf_calls == []


def test_syndrome_factors_only_the_encoding(snf_calls, capsys):
    # from_colex's injectivity check; the syndrome itself is two products
    argv = ["code", "syndrome", "--code", "triangle", "--d", "6", "--distance", "11",
            "--error", "X^2@3,Z@40"]
    assert cli.main(argv) == 0
    assert len(snf_calls) == 1


def test_tetra_at_another_mu_prime_builds_one_code(snf_calls, capsys):
    # only the mu' = 2 code is built, so only its injectivity check factors
    assert cli.main(["code", "check", "--code", "tetra", "--mu-prime", "2"]) == 2
    assert len(snf_calls) == 1
    assert capsys.readouterr().err == ("colexa: mu_prime=2: [G1; G0] has a nontrivial left "
                                       "kernel (dependent generators or no encoded qudit)\n")
