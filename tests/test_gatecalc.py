"""gatecalc: hierarchy levels and transversal gate identities."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from colexa import colex, gatecalc, ring
from oracles import unitary_hierarchy_level


def test_build_R_tables():
    assert gatecalc.build_S(5).p == (0, 1, 4, 4, 1)
    assert gatecalc.build_T(7).p == tuple(j**3 % 7 for j in range(7))
    assert gatecalc.build_T(3).p == (0, 1, 2)  # reduces to Pauli Z


def test_build_T36_tables():
    g3 = gatecalc.build_T36(3)
    assert (g3.N, g3.p) == (9, (0, 1, 8))
    g6 = gatecalc.build_T36(6)
    assert (g6.N, g6.p) == (18, (0, 1, 8, 9, 10, 17))
    with pytest.raises(ValueError):
        gatecalc.build_T36(5)


def test_cyclic_difference_examples():
    dT = gatecalc.cyclic_difference(gatecalc.build_T(5))
    assert dT.p == tuple((3 * j**2 + 3 * j + 1) % 5 for j in range(5))
    d36 = gatecalc.cyclic_difference(gatecalc.build_T36(3))
    assert d36.p == (1, 7, 1)
    const = gatecalc.PhaseGate(4, 4, (2, 2, 2, 2))
    assert gatecalc.cyclic_difference(const).p == (0, 0, 0, 0)


def test_hierarchy_levels_named_gates():
    assert gatecalc.hierarchy_level(gatecalc.build_T(5)).level == 3
    assert gatecalc.hierarchy_level(gatecalc.build_T(3)).level == 1
    assert gatecalc.hierarchy_level(gatecalc.build_T36(3)).level == 3
    assert gatecalc.hierarchy_level(gatecalc.build_T36(6)).level == 3
    assert gatecalc.hierarchy_level(gatecalc.build_S(5)).level == 2


def test_T36_difference_trace_d3():
    v = gatecalc.hierarchy_level(gatecalc.build_T36(3))
    assert v.difference_trace[0] == (1, 7, 1)
    assert v.difference_trace[1] == (6, 3, 0)
    assert v.difference_trace[2] == (6, 6, 6)


def test_hierarchy_sweep_polynomials():
    # a degree-r polynomial phase with r! a_r invertible mod d sits at level r
    rng = random.Random(7)
    for d in (2, 3, 4, 5, 6, 7, 9):
        for r in range(1, min(d, 5) + 1):
            if all(math.factorial(r) * a % d == 0 for a in range(d)):
                # no leading coefficient can make the degree-r term survive
                continue
            trials = 0
            while trials < 100:
                coeffs = [rng.randrange(d) for _ in range(r + 1)]
                if math.factorial(r) * coeffs[r] % d == 0:
                    continue
                trials += 1
                g = gatecalc.build_R(d, coeffs)
                level = gatecalc.hierarchy_level(g, l_cap=r + 2).level
                assert level == r, (d, r, coeffs, level)


def test_hierarchy_constant_offset_irrelevant():
    for d in (3, 5, 7):
        base = gatecalc.build_R(d, (0, 0, 0, 1))
        shifted = gatecalc.build_R(d, (2, 0, 0, 1))
        assert (
            gatecalc.hierarchy_level(base).level
            == gatecalc.hierarchy_level(shifted).level
        )


def test_hierarchy_cap_exceeded_reported():
    g = gatecalc.build_T36(3)
    v = gatecalc.hierarchy_level(g, l_cap=2)
    assert v.level is None
    assert v.to_dict()["level"] == "> 2"


def test_unitary_oracle_agreement():
    # explicit complex conjugation recursion, d <= 5, N <= 15
    rng = random.Random(3)
    gates = [
        gatecalc.build_T(5),
        gatecalc.build_S(5),
        gatecalc.build_T36(3),
        gatecalc.build_T(2),
        gatecalc.build_R(2, (0, 1)),
    ]
    for _ in range(40):
        d = rng.choice([2, 3, 4, 5])
        N = d * rng.choice([1, 2, 3])
        if N > 15:
            continue
        gates.append(
            gatecalc.PhaseGate(d, N, tuple(rng.randrange(N) for _ in range(d)))
        )
    for g in gates:
        table = gatecalc.hierarchy_level(g, l_cap=10).level
        unitary = unitary_hierarchy_level(g.p, g.d, g.N, l_cap=10)
        assert table == unitary, (g.d, g.N, g.p)


@pytest.mark.parametrize("d", [4, 5, 7])
def test_transversal_T_tetra(d):
    _, C = colex.build_tetrahedral(d)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T(d))
    assert rep.passed and rep.checked == d**5


@pytest.mark.parametrize("d", [3, 6])
def test_transversal_T36_tetra(d):
    _, C = colex.build_tetrahedral(d)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T36(d))
    assert rep.passed and rep.checked == d**5


def test_transversal_T_fails_on_triangle():
    _, C = colex.build_triangle_2d(5, 3)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T(5))
    assert not rep.passed
    assert rep.witness is not None
    # the witness must actually violate the congruence
    w = rep.witness
    assert gatecalc.transversal_phase(C, gatecalc.build_T(5), w["term"]) != w["expected"]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_transversal_S_both_codes(d):
    for build in (
        lambda: colex.build_triangle_2d(d, 3),
        lambda: colex.build_tetrahedral(d),
    ):
        _, C = build()
        assert gatecalc.verify_transversal_S(C).passed


def test_transversal_CX_tetra_d3():
    _, C = colex.build_tetrahedral(3)
    rep = gatecalc.verify_transversal_CX(C)
    assert rep.passed


def test_polynomial_gates_up_to_max_m_transversal():
    # any polynomial gate of degree <= max_m_star passes transversally
    from colexa import morth

    rng = random.Random(11)
    for d, build, mstar in (
        (3, lambda: colex.build_tetrahedral(3), 3),
        (5, lambda: colex.build_triangle_2d(5, 3), 2),
    ):
        _, C = build()
        M, g1 = morth.code_matrix(C)
        assert morth.max_m_star(M, g1, "strong", 5) == mstar
        for _ in range(5):
            deg = rng.randint(1, mstar)
            coeffs = [rng.randrange(d) for _ in range(deg + 1)]
            g = gatecalc.build_R(d, coeffs)
            assert gatecalc.verify_transversal_phase(C, g).passed, (d, coeffs)


def test_gate_spec_parsing():
    assert gatecalc.build_gate("T", 5).p == gatecalc.build_T(5).p
    assert gatecalc.build_gate("T36", 3).N == 9
    assert gatecalc.build_gate("S", 3).p == (0, 1, 1)
    assert gatecalc.build_gate("R:1,2", 5).p == tuple((1 + 2 * j) % 5 for j in range(5))
    with pytest.raises(ValueError):
        gatecalc.build_gate("Q", 3)


def loop_transversal_phase(C, g):
    """The term loop verify_transversal_phase ran before it went blocked:
    y in lexicographic order, one term and one phase at a time."""
    basis, orders = ring.row_basis(C.G0), ring.span_orders(C.G0)
    checked = 0
    for x in range(C.d):
        offset = tuple((x * e) % C.d for e in C.G1.rows[0])
        for y in itertools.product(*(range(o) for o in orders)):
            term = list(offset)
            for coeff, row in zip(y, basis.rows):
                for j, e in enumerate(row):
                    term[j] = (term[j] + coeff * e) % C.d
            checked += 1
            phase = gatecalc.transversal_phase(C, g, term)
            if phase != g.p[x]:
                return checked, {"x": x, "y": list(y), "term": term, "phase": phase,
                                 "expected": g.p[x]}
    return checked, None


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4, 5, 6]),
    family=st.sampled_from(["tetra", "triangle"]),
    # N = d * 2^61 takes the Python-int phase sums: 15 (N-1) >= 2^63
    gate=st.sampled_from(["T", "S", "R:1,2", "huge"]),
    data=st.data(),
)
def test_blocked_transversal_matches_term_loop(d, family, gate, data):
    _, C = (colex.build_tetrahedral(d) if family == "tetra"
            else colex.build_triangle_2d(d, 3))
    if gate == "huge":
        N = d * 2**61
        g = gatecalc.PhaseGate(d, N, tuple(j * j * 2**61 % N for j in range(d)))
    else:
        g = gatecalc.build_gate(gate, d)
    codes = [C]
    rows = [list(r) for r in C.G0.rows]
    rows[data.draw(st.integers(0, len(rows) - 1))][data.draw(st.integers(0, C.n - 1))] = (
        data.draw(st.integers(0, d - 1)))
    codes.append(dataclasses.replace(C, G0=ring.ResidueMatrix(d, tuple(map(tuple, rows)))))
    signs = list(C.star_signs)
    signs[data.draw(st.integers(0, C.n - 1))] *= -1
    codes.append(dataclasses.replace(C, star_signs=tuple(signs)))
    for code in codes:
        rep = gatecalc.verify_transversal_phase(code, g)
        assert (rep.checked, rep.witness) == loop_transversal_phase(code, g)
        assert rep.passed == (rep.witness is None)
