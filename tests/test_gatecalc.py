"""gatecalc: hierarchy levels and transversal gate identities."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colexa import code as code_mod, colex, gatecalc, ring
from colexa.code import CapExceeded, DEFAULT_CAP
from colexa.reports import Report
from builders import with_code
from oracles import unitary_hierarchy_level


def test_build_R_tables():
    assert gatecalc.build_S(5).p == (0, 1, 4, 4, 1)
    assert gatecalc.build_T(7).p == tuple(j**3 % 7 for j in range(7))
    assert gatecalc.build_T(3).p == (0, 1, 2)  # reduces to Pauli Z


def power_sum_R(d, coeffs):
    """The R table as build_R computed it before Horner's rule: exact
    big-integer powers, reduced mod d once at the end."""
    coeffs = [int(a) for a in coeffs]
    return tuple(sum(a * j**m for m, a in enumerate(coeffs)) % d for j in range(d))


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5, 6, 8, 12, 97, 1000, 65537]),
       coeffs=st.lists(st.integers(-10**30, 10**30), max_size=8))
def test_build_R_matches_power_sum(d, coeffs):
    assert gatecalc.build_R(d, coeffs).p == power_sum_R(d, coeffs)


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
    assert gatecalc.hierarchy_level(gatecalc.build_T(5))[0] == 3
    assert gatecalc.hierarchy_level(gatecalc.build_T(3))[0] == 1
    assert gatecalc.hierarchy_level(gatecalc.build_T36(3))[0] == 3
    assert gatecalc.hierarchy_level(gatecalc.build_T36(6))[0] == 3
    assert gatecalc.hierarchy_level(gatecalc.build_S(5))[0] == 2


def test_T36_difference_trace_d3():
    level, trace = gatecalc.hierarchy_level(gatecalc.build_T36(3))
    assert level == 3
    assert trace == [(1, 7, 1), (6, 3, 0), (6, 6, 6)]


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
                level = gatecalc.hierarchy_level(g, l_cap=r + 2)[0]
                assert level == r, (d, r, coeffs, level)


def test_hierarchy_constant_offset_irrelevant():
    for d in (3, 5, 7):
        base = gatecalc.build_R(d, (0, 0, 0, 1))
        shifted = gatecalc.build_R(d, (2, 0, 0, 1))
        assert (
            gatecalc.hierarchy_level(base)[0]
            == gatecalc.hierarchy_level(shifted)[0]
        )


def test_hierarchy_cap_exceeded_reported():
    g = gatecalc.build_T36(3)
    level, trace = gatecalc.hierarchy_level(g, l_cap=2)
    assert level is None and len(trace) == 2


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
        table = gatecalc.hierarchy_level(g, l_cap=10)[0]
        unitary = unitary_hierarchy_level(g.p, g.d, g.N, l_cap=10)
        assert table == unitary, (g.d, g.N, g.p)


@pytest.mark.parametrize("d", [4, 5, 7])
def test_transversal_T_tetra(d):
    _, C = with_code(colex.hypercube_lattice(3), d)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T(d))
    assert rep.ok and rep.checked == d**5


@pytest.mark.parametrize("d", [3, 6])
def test_transversal_T36_tetra(d):
    _, C = with_code(colex.hypercube_lattice(3), d)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T36(d))
    assert rep.ok and rep.checked == d**5


def test_transversal_phase_charges_its_own_cap():
    # |span(G0)| = 3^4 terms for each of the 3 labels: 243 evaluations
    _, C = with_code(colex.hypercube_lattice(3), 3)
    with pytest.raises(CapExceeded) as exc:
        gatecalc.verify_transversal_phase(C, gatecalc.build_T(3), cap=10)
    assert str(exc.value) == "transversal check needs 243 > cap 10 evaluations"


def test_transversal_T_fails_on_triangle():
    _, C = with_code(colex.triangle_lattice(3), 5)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T(5))
    assert not rep.ok
    assert rep.witness is not None
    # the witness must actually violate the congruence
    w = rep.witness
    assert phase_of(C, gatecalc.build_T(5), w["term"]) != w["expected"]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_transversal_S_both_codes(d):
    for build in (
        lambda: with_code(colex.triangle_lattice(3), d),
        lambda: with_code(colex.hypercube_lattice(3), d),
    ):
        _, C = build()
        assert gatecalc.verify_transversal_phase(C, gatecalc.build_S(d)).ok


def test_transversal_CX_tetra_d3():
    _, C = with_code(colex.hypercube_lattice(3), 3)
    rep = gatecalc.verify_transversal_CX(C)
    assert rep.ok


def loop_transversal_CX(C: code_mod.ColorCode, cap: int = DEFAULT_CAP) -> Report:
    """The pair loop verify_transversal_CX ran before it went blocked, kept
    as an oracle: one Python tuple sum and one set lookup per pair.  Each
    codeword's terms become a set of tuples here, whatever Codeword stores:
    `tuple in ndarray` would be an elementwise any, true for almost every
    sum."""
    if C.k != 1:
        raise ValueError("CX check supports k=1 codes only")
    span = ring.span_size(C.G0)
    total = (C.d * span) ** 2
    if total > cap:
        raise CapExceeded(f"CX check needs {total} > cap {cap} pair checks")
    words = {x: {tuple(t) for t in code_mod.codeword(C, x, cap).terms.tolist()}
             for x in range(C.d)}
    checked = 0
    for x1, x2 in itertools.product(range(C.d), repeat=2):
        target = words[(x1 + x2) % C.d]
        for t1 in words[x1]:
            for t2 in words[x2]:
                checked += 1
                summed = tuple((a + b) % C.d for a, b in zip(t1, t2))
                if summed not in target:
                    return Report(
                        "transversal-CX", False, checked,
                        {"x1": x1, "x2": x2, "t1": list(t1), "t2": list(t2)},
                    )
    return Report("transversal-CX", True, checked)


@pytest.mark.parametrize("family,d", [("tetra", 2), ("tetra", 3), ("tetra", 4),
                                      ("triangle", 2), ("triangle", 3)])
def test_blocked_CX_matches_pair_loop(family, d):
    _, C = with_code(colex.hypercube_lattice(3) if family == "tetra" else colex.triangle_lattice(3), d)
    rep = gatecalc.verify_transversal_CX(C)
    assert rep.ok and rep.checked == (d * ring.span_size(C.G0)) ** 2
    assert verdict(rep) == verdict(loop_transversal_CX(C))


def test_pair_loop_fails_on_a_corrupted_term(monkeypatch):
    """Negative control for the oracle: one term of |1_L> moved off its coset
    by X on qudit 0 makes the pair loop report a failing pair."""
    _, C = with_code(colex.hypercube_lattice(3), 3)
    honest = code_mod.codeword

    def corrupted(C, x, cap=DEFAULT_CAP):
        cw = honest(C, x, cap)
        if cw.x != (1,):
            return cw
        terms = cw.terms.copy()
        terms[0, 0] = (terms[0, 0] + 1) % C.d
        return code_mod.Codeword(cw.x, terms)

    assert loop_transversal_CX(C).ok
    monkeypatch.setattr(code_mod, "codeword", corrupted)
    rep = loop_transversal_CX(C)
    assert not rep.ok and rep.checked < (C.d * ring.span_size(C.G0)) ** 2
    bad = corrupted(C, 1).terms[0].tolist()
    w = rep.witness
    assert bad in (w["t1"], w["t2"]) or (w["x1"] + w["x2"]) % C.d == 1


def test_CX_charges_nothing_to_the_cap():
    # 7^10 = 282,475,249 pairs, over the default cap: none is enumerated
    _, C = with_code(colex.hypercube_lattice(3), 7)
    rep = gatecalc.verify_transversal_CX(C)
    assert rep.ok and rep.checked == 7**10 > DEFAULT_CAP


def verdict(rep) -> tuple:
    return rep.name, rep.ok, rep.checked, rep.witness


def outcome(check, *args, **kwargs):
    """check's verdict, or the type and message of its error."""
    try:
        return verdict(check(*args, **kwargs))
    except (ValueError, CapExceeded) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5, 6, 8]), n=st.integers(1, 4),
       k=st.sampled_from([1, 1, 1, 0, 2]), data=st.data())
def test_CX_closed_form_matches_pair_loop_on_random_codes(d, n, k, data):
    """Random G0, G1, Zstab and star signs, most of them failing verify_code:
    the closed form gives the pair loop's report and its k != 1 error
    wherever the loop fits its cap."""
    def rows(count):
        return ring.ResidueMatrix(d, tuple(
            tuple(data.draw(st.integers(0, d - 1)) for _ in range(n)) for _ in range(count)))

    signs = tuple(data.draw(st.sampled_from([1, -1])) for _ in range(n))
    C = code_mod.ColorCode(d, n, signs, G0=rows(data.draw(st.integers(0, 3))), G1=rows(k),
                           z_stab=rows(data.draw(st.integers(0, 3))))
    expect = outcome(loop_transversal_CX, C, 40_000)
    if expect[0] != "CapExceeded":
        assert outcome(gatecalc.verify_transversal_CX, C) == expect


def test_polynomial_gates_up_to_max_m_transversal():
    # any polynomial gate of degree <= max_m_star passes transversally
    from colexa import morth

    rng = random.Random(11)
    for d, build, mstar in (
        (3, lambda: with_code(colex.hypercube_lattice(3), 3), 3),
        (5, lambda: with_code(colex.triangle_lattice(3), 5), 2),
    ):
        _, C = build()
        M, g1 = morth.code_matrix(C)
        assert morth.max_m_star(M, g1, "strong", 5) == mstar
        for _ in range(5):
            deg = rng.randint(1, mstar)
            coeffs = [rng.randrange(d) for _ in range(deg + 1)]
            g = gatecalc.build_R(d, coeffs)
            assert gatecalc.verify_transversal_phase(C, g).ok, (d, coeffs)


def test_gate_spec_parsing():
    assert gatecalc.build_gate("T", 5).p == gatecalc.build_T(5).p
    assert gatecalc.build_gate("T36", 3).N == 9
    assert gatecalc.build_gate("S", 3).p == (0, 1, 1)
    assert gatecalc.build_gate("R:1,2", 5).p == tuple((1 + 2 * j) % 5 for j in range(5))
    with pytest.raises(ValueError):
        gatecalc.build_gate("Q", 3)


def phase_of(C, g, term) -> int:
    """The transversal gate's phase (mod N) on one computational-basis term:
    g on unstarred qudits, its conjugate on starred ones."""
    return sum(s * g.p[t] for s, t in zip(C.star_signs, term)) % g.N


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
            phase = phase_of(C, g, term)
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
    _, C = (with_code(colex.hypercube_lattice(3), d) if family == "tetra"
            else with_code(colex.triangle_lattice(3), d))
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
        assert rep.ok == (rep.witness is None)


@pytest.mark.parametrize("d,dtype", [(127, np.uint8), (129, np.uint16)])
@pytest.mark.parametrize("gate", ["R:0,1", "S", "T"])
def test_transversal_at_the_block_dtype_edges_matches_term_loop(d, dtype, gate):
    # terms (x + y, x - y, x) with the last qudit starred: a linear table
    # passes, S fails at x = 0, y = 1 and T (6 x y^2 too many) at x = 1, y = 1
    C = code_mod.code_from_json({"d": d, "n": 3, "stars": [1, 1, -1], "G0": [[1, d - 1, 0]],
                                 "G1": [[1, 1, 1]], "Zstab": []})
    assert next(ring.span_blocks(C.G0)).dtype == dtype
    g = gatecalc.build_gate(gate, d)
    rep = gatecalc.verify_transversal_phase(C, g)
    assert (rep.checked, rep.witness) == loop_transversal_phase(C, g)
    assert rep.ok == (gate == "R:0,1")
    assert rep.ok or (rep.witness["x"], rep.witness["y"]) == ((0, [1]) if gate == "S" else (1, [1]))
